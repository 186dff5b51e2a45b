package cliutil

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"xgftsim/internal/obs"
)

// Manifest records what a CLI run actually did — tool and build
// identity, the exact flag values, seeds and worker bounds, per-
// experiment wall-clock and metric deltas, and the exit status — so a
// results directory is self-describing: when a benchmark or sweep moves
// between runs, the manifests say what ran. Written as manifest.json
// next to the run's CSVs.
type Manifest struct {
	Tool        string            `json:"tool"`
	Version     string            `json:"version,omitempty"`
	GoVersion   string            `json:"go_version"`
	Started     time.Time         `json:"started"`
	Finished    time.Time         `json:"finished"`
	WallSeconds float64           `json:"wall_seconds"`
	Args        []string          `json:"args"`
	Flags       map[string]string `json:"flags,omitempty"`
	Scale       string            `json:"scale,omitempty"`
	Seed        int64             `json:"seed"`
	Workers     int               `json:"workers"`
	// Routing-table policy of the run (see TableFlags): where segments
	// were cached, the resident byte budget, and the block-mode segment
	// size. Zero values mean the tool ran with defaults / no cache.
	TableCache         string             `json:"table_cache,omitempty"`
	TableCacheMaxBytes int64              `json:"table_cache_max_bytes,omitempty"`
	TableBudget        int64              `json:"table_budget,omitempty"`
	SegmentBytes       int64              `json:"segment_bytes,omitempty"`
	Experiments        []ExperimentRecord `json:"experiments,omitempty"`
	Results            map[string]any     `json:"results,omitempty"`
	Metrics            obs.Snapshot       `json:"metrics,omitempty"`
	// ExitCode is the process exit code; ExitStatus names the outcome:
	// "ok", "error", or "interrupted" (the run was cancelled by
	// SIGINT/SIGTERM but still sealed its manifest on the way out).
	ExitCode   int    `json:"exit_code"`
	ExitStatus string `json:"exit_status"`
	Error      string `json:"error,omitempty"`
}

// ErrInterrupted marks a run cancelled by SIGINT/SIGTERM. CLIs pass it
// (or an error wrapping it) to Finish so the manifest records
// exit_status "interrupted" instead of a generic error.
var ErrInterrupted = errors.New("interrupted")

// ExperimentRecord is one experiment's slice of a run: its wall-clock,
// output file, and the change in every registered metric while it ran.
type ExperimentRecord struct {
	Name        string       `json:"name"`
	WallSeconds float64      `json:"wall_seconds"`
	CSV         string       `json:"csv,omitempty"`
	Metrics     obs.Snapshot `json:"metrics,omitempty"`
}

// NewManifest starts a manifest for the named tool: build identity and
// start time are captured now, command-line arguments verbatim.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		Tool:      tool,
		Version:   buildVersion(),
		GoVersion: runtime.Version(),
		Started:   time.Now(),
		Args:      append([]string(nil), os.Args[1:]...),
	}
}

// buildVersion derives a version string from the embedded build info:
// the VCS revision (with a +dirty suffix) when the binary was built
// from a checkout, the module version otherwise.
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return rev + dirty
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return ""
}

// FlagValues captures every flag of fs (set or defaulted) as strings,
// so the manifest records the run's full effective configuration.
func FlagValues(fs *flag.FlagSet) map[string]string {
	m := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) {
		m[f.Name] = f.Value.String()
	})
	return m
}

// Finish stamps the end time, exit code and error (nil for success),
// and snapshots the shared metrics registry. An error wrapping
// ErrInterrupted records exit_status "interrupted".
func (m *Manifest) Finish(exitCode int, err error) {
	m.Finished = time.Now()
	m.WallSeconds = m.Finished.Sub(m.Started).Seconds()
	m.ExitCode = exitCode
	switch {
	case errors.Is(err, ErrInterrupted):
		m.ExitStatus = "interrupted"
		m.Error = err.Error()
	case err != nil:
		m.ExitStatus = "error"
		m.Error = err.Error()
	case exitCode != 0:
		m.ExitStatus = "error"
	default:
		m.ExitStatus = "ok"
	}
	m.Metrics = obs.Default().Snapshot()
}

// WriteFile writes the manifest as dir/manifest.json, atomically: the
// JSON is written to a temp file in dir and renamed into place, so a
// crash mid-write never destroys a previous manifest.
func (m *Manifest) WriteFile(dir string) error {
	if m.Finished.IsZero() {
		m.Finish(0, nil)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("cliutil: marshal manifest: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(dir, "manifest-*.json.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, "manifest.json"))
}
