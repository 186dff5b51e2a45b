package experiments

import (
	"context"
	"fmt"
	"runtime"

	"xgftsim/internal/core"
	"xgftsim/internal/flow"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// TableOptions carries the routing-table policy from the CLI into the
// experiments that can run out-of-core: an optional on-disk segment
// cache, the resident-memory budget, and the segment granularity.
type TableOptions struct {
	// CacheDir, when non-empty, persists compiled segments for reuse
	// across runs.
	CacheDir string
	// CacheMaxBytes caps the segment cache's on-disk footprint (oldest
	// records evicted on write); 0 means unbounded.
	CacheMaxBytes int64
	// Budget caps resident table bytes; 0 means core.DefaultTableBudget.
	Budget int64
	// SegmentBytes overrides the experiment's segment size when > 0.
	SegmentBytes int64
}

// MegaConfig describes a mega-fabric Figure-4-style sweep: average
// maximum link load of random permutations versus K, on a fabric too
// large to compile in full, evaluated in block mode — table-free for
// closed-form selectors, over streamed block-compiled tables for the
// rest (see flow.BlockEvaluator).
type MegaConfig struct {
	Topo *topology.Topology
	// Ks is the requested K grid (clamped/deduped via effectiveKs).
	Ks []int
	// Samples is the fixed permutation count per cell. Mega sweeps use a
	// fixed sample budget instead of the adaptive protocol: each sample
	// costs a full segment-ordered table walk, so the budget — not a
	// convergence test — is the binding constraint, and the reported
	// half-widths state the precision the budget bought.
	Samples int
	// PermSeed salts the permutation streams (sample i is
	// stats.Stream(PermSeed, i), exactly like flow.Experiment).
	PermSeed int64
	// Schemes defaults to the four Figure 4 series.
	Schemes []core.Selector
	// RandSeeds drive randomized selectors; default {101, 202}. A mega
	// deviation from the paper's five seeds: each seed is a separate
	// block-compiled table, and two seeds bound the table-build cost
	// while still averaging out selector randomness.
	RandSeeds []int64
	// SegmentBytes is the compiled size of one source-block segment;
	// 0 means core.DefaultSegmentBytes.
	SegmentBytes int64
	// TableBudget caps resident segment bytes per table; 0 means
	// core.DefaultTableBudget.
	TableBudget int64
	// CacheDir optionally persists compiled segments across runs.
	CacheDir string
	// CacheMaxBytes caps the segment cache's on-disk footprint; 0 means
	// unbounded.
	CacheMaxBytes int64
	// Workers bounds shard parallelism; 0 means GOMAXPROCS. Shards
	// split the segment range, so Workers=1 degenerates to the exact
	// sequential walk (bit-identical to lazy evaluation).
	Workers int
	// EvalBytes bounds total evaluator row memory across shards, which
	// sets how many samples share one table walk; 0 means 512 MiB.
	EvalBytes int64
	// Ctx cancels the sweep between shard cells (see Scale.Ctx).
	Ctx context.Context
}

// megaUnit is one (scheme, seed) measurement: a block-compiled table
// walked by sharded evaluators over the common permutation stream.
type megaUnit struct {
	scheme int
	seed   int64
}

// MegaFabricSweep runs the mega-fabric sweep. Units — one per (scheme,
// seed) — run sequentially so only one block table is live at a time;
// within a unit, shards own disjoint segment ranges of every walk and
// parallelize across Workers. Per-sample values average over each
// scheme's seeds in seed order, matching flow.Experiment.
func MegaFabricSweep(cfg MegaConfig) (*Table, error) {
	t := cfg.Topo
	if t == nil {
		return nil, fmt.Errorf("experiments: mega sweep needs a topology")
	}
	if cfg.Samples < 1 {
		return nil, fmt.Errorf("experiments: mega sweep needs Samples >= 1, got %d", cfg.Samples)
	}
	schemes := cfg.Schemes
	if len(schemes) == 0 {
		schemes = fig4Schemes()
	}
	randSeeds := cfg.RandSeeds
	if len(randSeeds) == 0 {
		randSeeds = []int64{101, 202}
	}
	eff, rowOf := effectiveKs(t, cfg.Ks)
	nK := len(eff)
	kmax := eff[nK-1]

	var cache *core.SegmentCache
	if cfg.CacheDir != "" {
		var err error
		if cache, err = core.OpenSegmentCache(cfg.CacheDir); err != nil {
			return nil, err
		}
		cache.SetMaxBytes(cfg.CacheMaxBytes)
	}
	evalBytes := cfg.EvalBytes
	if evalBytes <= 0 {
		evalBytes = 512 << 20
	}

	var units []megaUnit
	seedsOf := make([][]int64, len(schemes))
	for j, sel := range schemes {
		seedsOf[j] = []int64{0}
		if !core.ClosedForm(sel) {
			seedsOf[j] = randSeeds
		}
		for _, s := range seedsOf[j] {
			units = append(units, megaUnit{scheme: j, seed: s})
		}
	}

	// results[u][i][j]: unit u, sample i, effective-K column j.
	results := make([][][]float64, len(units))
	for u, unit := range units {
		b := core.NewBlockCompiledRouting(core.NewRouting(t, schemes[unit.scheme], kmax, unit.seed), core.BlockOptions{
			SegmentBytes:  cfg.SegmentBytes,
			ResidentBytes: cfg.TableBudget,
			Cache:         cache,
		})
		vals, err := runMegaUnit(cfg, b, eff, evalBytes)
		b.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: mega unit %s seed %d: %w", schemes[unit.scheme].Name(), unit.seed, err)
		}
		results[u] = vals
	}

	// Fold per-unit samples into per-scheme accumulators: sample i's
	// value is the seed average, added in sample order.
	accs := make([][]stats.Accumulator, len(schemes))
	for j := range schemes {
		accs[j] = make([]stats.Accumulator, nK)
		var mine []int
		for u, unit := range units {
			if unit.scheme == j {
				mine = append(mine, u)
			}
		}
		for i := 0; i < cfg.Samples; i++ {
			for c := 0; c < nK; c++ {
				sum := 0.0
				for _, u := range mine {
					sum += results[u][i][c]
				}
				accs[j][c].Add(sum / float64(len(mine)))
			}
		}
	}

	tbl := &Table{
		Title:   fmt.Sprintf("Mega-fabric sweep: average maximum link load vs paths, %s (%d endpoints, block mode)", t, t.NumProcessors()),
		XLabel:  "K",
		Columns: make([]string, len(schemes)),
	}
	for j, s := range schemes {
		tbl.Columns[j] = s.Name()
	}
	for i, k := range cfg.Ks {
		row := make([]Cell, len(schemes))
		for j := range schemes {
			a := &accs[j][rowOf[i]]
			row[j] = Cell{Mean: a.Mean(), HalfWidth: a.ConfidenceHalfWidth(0.99), Samples: a.N()}
		}
		tbl.XValues = append(tbl.XValues, fmt.Sprintf("%d", k))
		tbl.Cells = append(tbl.Cells, row)
	}
	tbl.Footnote = fmt.Sprintf("fixed %d permutations/cell, 99%% CI half-widths; closed-form schemes table-free, others over out-of-core block tables (segments ≈ %s)",
		cfg.Samples, byteSize(segBytesOf(cfg)))
	return tbl, nil
}

func segBytesOf(cfg MegaConfig) int64 {
	if cfg.SegmentBytes > 0 {
		return cfg.SegmentBytes
	}
	return core.DefaultSegmentBytes
}

// runMegaUnit measures one (scheme, seed) over its prepared block
// table: Samples permutations × the effective K grid, returning
// vals[i][j]. Samples are processed in rounds sized so evaluator row
// memory stays under evalBytes; each round is one sharded
// segment-ordered walk of the whole batch, so a segment is compiled
// (or mapped) once per round per shard — or, for a closed-form
// selector, never: its rows are derived per flow.
func runMegaUnit(cfg MegaConfig, b *core.BlockCompiledRouting, eff []int, evalBytes int64) ([][]float64, error) {
	t := cfg.Topo
	shards := cfg.Workers
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > b.NumSegments() {
		shards = b.NumSegments()
	}
	evals := make([]*flow.BlockEvaluator, shards)
	for i := range evals {
		evals[i] = flow.NewBlockEvaluator(b, eff)
	}
	nK := len(eff)
	n := t.NumProcessors()
	numLinks := t.NumLinks()

	round := int(evalBytes / (8 * int64(numLinks) * int64(nK) * int64(shards)))
	if round < 1 {
		round = 1
	}
	if round > cfg.Samples {
		round = cfg.Samples
	}

	vals := make([][]float64, cfg.Samples)
	for i := range vals {
		vals[i] = make([]float64, nK)
	}
	tms := make([]*traffic.Matrix, 0, round)
	scratch := make([]float64, numLinks)
	var union []int32
	errs := make([]error, shards)
	for s0 := 0; s0 < cfg.Samples; s0 += round {
		s1 := s0 + round
		if s1 > cfg.Samples {
			s1 = cfg.Samples
		}
		tms = tms[:0]
		for i := s0; i < s1; i++ {
			rng := stats.Stream(cfg.PermSeed, int64(i))
			tms = append(tms, traffic.FromPermutation(traffic.RandomPermutation(n, rng)))
		}
		nSeg := b.NumSegments()
		runCells(cfg.Ctx, shards, cfg.Workers, func(i int) {
			g0 := i * nSeg / shards
			g1 := (i + 1) * nSeg / shards
			errs[i] = evals[i].AccumulateSegments(tms, g0, g1)
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		// Merge shard rows: sum per link (one shard per segment range,
		// so with a single shard the sum is the row verbatim), then max.
		for s := 0; s < len(tms); s++ {
			for j := 0; j < nK; j++ {
				union = union[:0]
				for _, e := range evals {
					row := e.Row(s, j)
					for _, l := range e.RowTouched(s, j) {
						if scratch[l] == 0 {
							union = append(union, l)
						}
						scratch[l] += row[l]
					}
				}
				mx := 0.0
				for _, l := range union {
					if v := scratch[l]; v > mx {
						mx = v
					}
					scratch[l] = 0
				}
				vals[s0+s][j] = mx
			}
		}
	}
	return vals, nil
}

// Mega runs the mega-fabric sweep at one of the named scales. The
// quick scale is a smoke test on a small fabric with deliberately tiny
// segments (forcing many blocks through the same machinery); paper and
// full grow the fabric past what CompileRouting's default budget can
// hold — full is ~10× the paper's largest evaluated topology.
func Mega(sc Scale, seed int64, topt TableOptions) (*Table, error) {
	cfg := MegaConfig{
		PermSeed:      seed,
		Workers:       sc.Workers,
		CacheDir:      topt.CacheDir,
		CacheMaxBytes: topt.CacheMaxBytes,
		TableBudget:   topt.Budget,
		SegmentBytes:  topt.SegmentBytes,
	}
	switch sc.Name {
	case "quick", "":
		cfg.Topo = topology.MustNew(3, []int{8, 8, 8}, []int{1, 8, 8})
		cfg.Ks = []int{1, 2, 4}
		cfg.Samples = 8
		// The closed-form schemes run table-free; random-K keeps the block
		// tables, pool and segment cache exercised at smoke scale.
		cfg.Schemes = []core.Selector{core.DModK{}, core.Shift1{}, core.Disjoint{}, core.RandomK{}}
		if cfg.SegmentBytes <= 0 {
			cfg.SegmentBytes = 256 << 10
		}
	case "paper":
		cfg.Topo = topology.MustNew(3, []int{12, 24, 24}, []int{1, 12, 12})
		cfg.Ks = []int{1, 4, 16}
		cfg.Samples = 16
		if cfg.SegmentBytes <= 0 {
			cfg.SegmentBytes = 16 << 20
		}
	case "full":
		cfg.Topo = topology.MustNew(3, []int{24, 24, 60}, []int{1, 24, 24})
		cfg.Ks = []int{1, 4}
		cfg.Samples = 16
		if cfg.SegmentBytes <= 0 {
			cfg.SegmentBytes = 64 << 20
		}
	default:
		return nil, fmt.Errorf("experiments: mega sweep has no %q scale", sc.Name)
	}
	return MegaFabricSweep(cfg)
}

// byteSize renders a byte count in the closest binary unit.
func byteSize(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.3g GiB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.3g MiB", float64(b)/float64(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.3g KiB", float64(b)/float64(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
