package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"xgftsim/internal/core"
	"xgftsim/internal/experiments"
	"xgftsim/internal/flow"
	"xgftsim/internal/obs"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// megaState is the mega-stream workload's set-up.
type megaState struct {
	spec    xgft
	topo    *topology.Topology
	cfg     experiments.MegaConfig // Schemes is filled per unit
	schemes []core.Selector
	// perms are the sweep's own permutation stream, regenerated for the
	// lazy-evaluator check.
	perms []*traffic.Matrix
}

// megaEvalBytes is MegaFabricSweep's default evaluator row budget.
const megaEvalBytes = 512 << 20

func newMegaState(c *runCtx) *megaState {
	s := &megaState{
		spec:    xgft{3, []int{12, 24, 24}, []int{1, 12, 12}},
		schemes: []core.Selector{core.Disjoint{}, core.RandomK{}},
	}
	s.cfg = experiments.MegaConfig{
		Ks:           []int{1, 4, 16},
		Samples:      8,
		PermSeed:     c.seed,
		RandSeeds:    []int64{101},
		SegmentBytes: 16 << 20,
		TableBudget:  256 << 20,
		Workers:      c.procs,
	}
	if c.smoke {
		s.spec = xgft{3, []int{4, 4, 4}, []int{1, 4, 4}}
		s.cfg.Samples = 4
		s.cfg.SegmentBytes = 32 << 10
		s.cfg.TableBudget = 256 << 10
	}
	s.topo = s.spec.build()
	s.topo.NewLinkExpander()
	s.cfg.Topo = s.topo
	n := s.topo.NumProcessors()
	for i := 0; i < s.cfg.Samples; i++ {
		s.perms = append(s.perms, traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(c.seed, int64(i)))))
	}
	return s
}

// unit runs the sweep for one scheme. Units of MegaFabricSweep are
// sequential and independent, so one call per scheme yields the same
// columns as one call over both and lets each be timed.
func (s *megaState) unit(sel core.Selector) *experiments.Table {
	cfg := s.cfg
	cfg.Schemes = []core.Selector{sel}
	tbl, err := experiments.MegaFabricSweep(cfg)
	if err != nil {
		panic(err)
	}
	return tbl
}

// mergeColumns joins single-scheme tables into one.
func mergeColumns(parts []*experiments.Table) *experiments.Table {
	out := &experiments.Table{XLabel: parts[0].XLabel, XValues: parts[0].XValues}
	out.Cells = make([][]experiments.Cell, len(out.XValues))
	for _, p := range parts {
		out.Columns = append(out.Columns, p.Columns...)
		for i := range p.Cells {
			out.Cells[i] = append(out.Cells[i], p.Cells[i]...)
		}
	}
	return out
}

func runMegaStream(c *runCtx) error {
	var s *megaState
	c.setup(func() { s = newMegaState(c) }, func() {})

	reg := obs.Default()
	snap0, mem0 := reg.Snapshot(), readMem()
	start := time.Now()
	unitTimes := make([][]float64, len(s.schemes))
	fillSecs := make([]float64, len(s.schemes))
	segsCompiled := make([]float64, len(s.schemes))
	var sweepTimes []float64
	var tbl *experiments.Table
	var longest time.Duration
	for pass := 0; ; pass++ {
		p0 := time.Now()
		parts := make([]*experiments.Table, len(s.schemes))
		for j, sel := range s.schemes {
			runtime.GC() // as testing.B does before a timed run
			us := reg.Snapshot()
			u0 := time.Now()
			parts[j] = s.unit(sel)
			unitTimes[j] = append(unitTimes[j], time.Since(u0).Seconds())
			if pass == 0 {
				d := reg.Delta(us)
				fillSecs[j] = counter(d, "core.segment_compile_nanos") / 1e9
				segsCompiled[j] = counter(d, "core.segments_compiled")
			}
		}
		merged := mergeColumns(parts)
		if tbl == nil {
			tbl = merged
		} else if ok, detail := tablesEqual(tbl, merged); !ok {
			c.check(fmt.Sprintf("pass %d table == pass 0", pass), false, "%s", detail)
		}
		d := time.Since(p0)
		sweepTimes = append(sweepTimes, d.Seconds())
		c.ops += int64(len(merged.XValues) * len(merged.Columns))
		if d > longest {
			longest = d
		}
		if !c.fits(time.Since(start), longest) {
			break
		}
	}
	wall := time.Since(start)
	delta, mem := reg.Delta(snap0), memSince(mem0)

	c.setMedian("e2e.sweep_s", sweepTimes)
	// One op is one source-destination pair evaluated in one K column.
	pairEvals := float64(s.cfg.Samples * s.topo.NumProcessors() * len(s.cfg.Ks))
	c.set("nominal_per_s", pairEvals/median(unitTimes[0]))
	c.set("stressed_per_s", pairEvals/median(unitTimes[1]))
	s.checkLazy(c, tbl)
	if !c.traced {
		return nil
	}

	c.set("core.segment_fill_s.disjoint", fillSecs[0])
	c.set("core.segment_fill_s.random", fillSecs[1])
	var bytes float64
	for j, sel := range s.schemes {
		r := core.NewRouting(s.topo, sel, 16, s.cfg.RandSeeds[0])
		_, nseg, _ := core.PlanBlocks(r, s.cfg.SegmentBytes)
		bytes += float64(core.CompiledBytes(r)) * segsCompiled[j] / float64(nseg)
	}
	c.set("core.segment_bytes", bytes)
	c.set("core.fill_mbps", bytes/1e6/(fillSecs[0]+fillSecs[1]))
	for _, name := range []string{"core.segments_compiled", "core.segment_live_bytes_peak", "flow.pairs_evaluated", "flow.block_segments_walked", "experiments.cells_done"} {
		c.set(name, counter(delta, name))
	}
	busy := histSum(delta, "experiments.cell_seconds")
	c.set("experiments.cell_busy_s", busy)
	c.set("experiments.parallel_eff", busy/(float64(c.procs)*wall.Seconds()))
	c.setRuntime(mem)
	c.note("prediction: segment fill >= 80%% of sweep_s x workers: measured %.0f%%",
		100*(fillSecs[0]+fillSecs[1])/(float64(c.procs)*wall.Seconds()))

	c.tr = newTracer()
	t0 := time.Now()
	fill0 := reg.Snapshot()
	root := c.tr.begin(0, layerDriver, "mega-stream")
	replay := s.sweepTraced(c, root)
	c.tr.end(root)
	tracedWall := time.Since(t0)
	replayFill := counter(reg.Delta(fill0), "core.segment_compile_nanos") / 1e9
	sum := c.tr.summarize()

	ok, detail := tablesEqual(tbl, replay)
	c.check("traced sweep table == untraced", ok, "%s", detail)
	c.set("trace.coverage", sum.coverage)
	c.check("trace.coverage >= 0.9", sum.coverage >= 0.9, "%.3f", sum.coverage)
	c.set("trace.overhead", tracedWall.Seconds()/wall.Seconds()-1)
	// AccumulateSegments fetches its segments itself; the walk is what
	// is left of its spans once the fill time core reports is removed.
	walk := float64(sum.byName["flow.accumulate_segments"].total)/1e9 - replayFill
	c.set("flow.block_walk_s", walk)
	c.note("%s; of flow's share, core's segment fill is %.1f%% and the walk %.1f%% (prediction: walk < 10%%)",
		sum.layerShares(), 100*replayFill/(replayFill+walk), 100*walk/(replayFill+walk))

	s.probes(c)
	s.segcacheSideRun(c)
	var err error
	c.traceOut, err = c.tr.write(outDir, c.workload, c.seed)
	return err
}

// checkLazy recomputes the disjoint column with the lazy evaluator
// over the sweep's own permutation stream. At K=1 every share is 1, so
// the shard merge cannot reorder any rounding and the column must match
// bit for bit; at larger K it must agree to rounding.
func (s *megaState) checkLazy(c *runCtx, tbl *experiments.Table) {
	exact, worst := true, 0.0
	for row, k := range s.cfg.Ks {
		ev := flow.NewEvaluator(core.NewRouting(s.topo, core.Disjoint{}, k, 0))
		var acc stats.Accumulator
		for _, tm := range s.perms {
			acc.Add(ev.MaxLoad(tm))
		}
		cell := tbl.Cells[row][0]
		if k == 1 && (math.Float64bits(cell.Mean) != math.Float64bits(acc.Mean()) ||
			math.Float64bits(cell.HalfWidth) != math.Float64bits(acc.ConfidenceHalfWidth(0.99))) {
			exact = false
		}
		if d := math.Abs(cell.Mean-acc.Mean()) / acc.Mean(); d > worst {
			worst = d
		}
	}
	c.check("lazy evaluator recomputes disjoint", exact && worst < 1e-12,
		"%d samples x %d Ks, K=1 bitwise %v, worst relative difference %.2g", len(s.perms), len(s.cfg.Ks), exact, worst)
}

// sweepTraced is experiments.MegaFabricSweep over the layers' public
// functions: per scheme one block table, walked by one evaluator per
// shard over disjoint segment ranges, rows merged per sample.
func (s *megaState) sweepTraced(c *runCtx, parent int32) *experiments.Table {
	t, tr, cfg := s.topo, c.tr, s.cfg
	ks := cfg.Ks
	nK := len(ks)
	numLinks := t.NumLinks()
	tbl := &experiments.Table{XLabel: "K"}
	for _, k := range ks {
		tbl.XValues = append(tbl.XValues, fmt.Sprintf("%d", k))
	}
	tbl.Cells = make([][]experiments.Cell, nK)

	for _, sel := range s.schemes {
		us := tr.begin(parent, layerExperiments, "experiments.mega_unit."+shortScheme(sel))
		seed := int64(0)
		if len(selectorSeeds(sel)) > 1 {
			seed = cfg.RandSeeds[0]
		}
		b := core.NewBlockCompiledRouting(core.NewRouting(t, sel, ks[nK-1], seed), core.BlockOptions{
			SegmentBytes: cfg.SegmentBytes, ResidentBytes: cfg.TableBudget,
		})
		shards := cfg.Workers
		if shards > b.NumSegments() {
			shards = b.NumSegments()
		}
		evals := make([]*flow.BlockEvaluator, shards)
		for i := range evals {
			evals[i] = flow.NewBlockEvaluator(b, ks)
		}
		round := int(megaEvalBytes / (8 * int64(numLinks) * int64(nK) * int64(shards)))
		if round < 1 {
			round = 1
		}
		if round > cfg.Samples {
			round = cfg.Samples
		}
		vals := make([][]float64, cfg.Samples)
		scratch := make([]float64, numLinks)
		var union []int32
		errs := make([]error, shards)
		for s0 := 0; s0 < cfg.Samples; s0 += round {
			s1 := s0 + round
			if s1 > cfg.Samples {
				s1 = cfg.Samples
			}
			ps := tr.begin(us, layerTraffic, "traffic.perm_batch")
			tms := make([]*traffic.Matrix, 0, s1-s0)
			for i := s0; i < s1; i++ {
				tms = append(tms, traffic.FromPermutation(traffic.RandomPermutation(t.NumProcessors(), stats.Stream(cfg.PermSeed, int64(i)))))
			}
			tr.end(ps)
			nSeg := b.NumSegments()
			parallelCells(cfg.Workers, shards, func(i int) {
				w := tr.begin(us, layerFlow, "flow.accumulate_segments")
				errs[i] = evals[i].AccumulateSegments(tms, i*nSeg/shards, (i+1)*nSeg/shards)
				tr.end(w)
			})
			for _, err := range errs {
				if err != nil {
					panic(err)
				}
			}
			ms := tr.begin(us, layerExperiments, "experiments.merge_shards")
			for sm := range tms {
				vals[s0+sm] = make([]float64, nK)
				for j := 0; j < nK; j++ {
					union = union[:0]
					for _, e := range evals {
						row := e.Row(sm, j)
						for _, l := range e.RowTouched(sm, j) {
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
					vals[s0+sm][j] = mx
				}
			}
			tr.end(ms)
		}
		b.Close()
		tbl.Columns = append(tbl.Columns, sel.Name())
		for j := 0; j < nK; j++ {
			var acc stats.Accumulator
			for i := 0; i < cfg.Samples; i++ {
				acc.Add(vals[i][j])
			}
			tbl.Cells[j] = append(tbl.Cells[j], experiments.Cell{Mean: acc.Mean(), HalfWidth: acc.ConfidenceHalfWidth(0.99), Samples: acc.N()})
		}
		tr.end(us)
	}
	return tbl
}

func (s *megaState) probes(c *runCtx) {
	rng := rand.New(rand.NewSource(c.seed))
	pairs := 200000
	if c.smoke {
		pairs = 20000
	}
	c.set("topology.build_ms", 1e3*medianSeconds(func() { s.spec.build().NewLinkExpander() }))
	c.set("topology.expand_ns_per_path", probeExpand(s.topo, rng, pairs))
	c.set("core.select_ns_per_pair.disjoint", probeSelect(core.NewRouting(s.topo, core.Disjoint{}, 16, 0), rng, pairs))
	c.set("core.select_ns_per_pair.random", probeSelect(core.NewRouting(s.topo, core.RandomK{}, 16, 101), rng, pairs))
}

// segcacheSideRun records what the segment cache costs and saves: a
// smaller sweep run twice against one cache directory, the first pass
// compiling and writing every segment, the second mapping them back.
// No end-to-end metric depends on it.
func (s *megaState) segcacheSideRun(c *runCtx) {
	dir := c.tempDir("segcache-")
	cfg := experiments.MegaConfig{
		// Figure 4 panel b.
		Topo:         topology.MustNew(3, []int{8, 8, 16}, []int{1, 8, 8}),
		Ks:           []int{1, 16},
		Samples:      64,
		PermSeed:     c.seed,
		Schemes:      []core.Selector{core.Disjoint{}},
		SegmentBytes: 16 << 20,
		TableBudget:  256 << 20,
		Workers:      c.procs,
		CacheDir:     dir,
	}
	if c.smoke {
		cfg.Topo = s.topo
		cfg.Samples = 4
		cfg.SegmentBytes = 32 << 10
	}
	reg := obs.Default()
	pass := func() (float64, obs.Snapshot, *experiments.Table) {
		snap := reg.Snapshot()
		t0 := time.Now()
		tbl, err := experiments.MegaFabricSweep(cfg)
		if err != nil {
			panic(err)
		}
		return time.Since(t0).Seconds(), reg.Delta(snap), tbl
	}
	storeS, _, cold := pass()
	loadS, d, warm := pass()
	ok, detail := tablesEqual(cold, warm)
	c.check("cached re-run table == first run", ok, "%s", detail)
	c.set("core.segcache_store_s", storeS)
	c.set("core.segcache_load_s", loadS)
	hit, miss := counter(d, "core.segments_cache_hit"), counter(d, "core.segments_cache_miss")
	if hit+miss > 0 {
		c.set("core.segcache_hit_ratio", hit/(hit+miss))
	}
	var size int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			size += info.Size()
		}
		return err
	})
	if err != nil {
		panic(err)
	}
	c.set("core.segcache_bytes", float64(size))
}
