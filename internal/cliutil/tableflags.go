package cliutil

import (
	"flag"

	"xgftsim/internal/core"
	"xgftsim/internal/experiments"
)

// TableFlags is xgftpaper's routing-table policy: where (and whether)
// to cache compiled segments on disk, how many bytes of table may stay
// resident, and the segment granularity of the out-of-core block mode
// that -exp mega runs.
type TableFlags struct {
	CacheDir      string
	CacheMaxBytes int64
	Budget        int64
	SegmentBytes  int64
}

// AddTableFlags registers -table-cache, -table-cache-max-bytes,
// -table-budget and -segment-bytes on fs and returns the destination
// struct.
func AddTableFlags(fs *flag.FlagSet) *TableFlags {
	tf := &TableFlags{}
	fs.StringVar(&tf.CacheDir, "table-cache", "", "directory caching compiled routing segments across runs (empty: no cache)")
	fs.Int64Var(&tf.CacheMaxBytes, "table-cache-max-bytes", 0, "cap on segment-cache disk bytes, oldest records evicted on write (0: unbounded)")
	fs.Int64Var(&tf.Budget, "table-budget", core.DefaultTableBudget, "resident routing-table byte budget (full compile must fit it; block mode pools segments under it)")
	fs.Int64Var(&tf.SegmentBytes, "segment-bytes", 0, "compiled bytes per source-block segment in block mode (0: experiment default)")
	return tf
}

// Options converts the flags to the experiments-layer table policy.
func (tf *TableFlags) Options() experiments.TableOptions {
	return experiments.TableOptions{
		CacheDir:      tf.CacheDir,
		CacheMaxBytes: tf.CacheMaxBytes,
		Budget:        tf.Budget,
		SegmentBytes:  tf.SegmentBytes,
	}
}

// Stamp records the effective table policy in the run manifest.
func (tf *TableFlags) Stamp(m *Manifest) {
	m.TableCache = tf.CacheDir
	m.TableCacheMaxBytes = tf.CacheMaxBytes
	m.TableBudget = tf.Budget
	m.SegmentBytes = tf.SegmentBytes
}
