package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xgftsim/internal/core"
	"xgftsim/internal/experiments"
	"xgftsim/internal/flow"
	"xgftsim/internal/obs"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// flowState is the flow-paper workload's set-up: the two fabrics, the
// K grid, the sampling scale and the permutations the spot checks
// recompute.
type flowState struct {
	fig4Spec, failSpec xgft
	fig4Topo, failTopo *topology.Topology
	ks                 []int
	sc                 experiments.Scale
	failReps           int
	checkPerms         []*traffic.Matrix
}

// flowCheckPerms is how many permutations per scheme the lazy
// evaluator recomputes.
const flowCheckPerms = 8

func newFlowState(c *runCtx) *flowState {
	s := &flowState{
		// Figure 4 panel d and panel a.
		fig4Spec: xgft{3, []int{12, 12, 24}, []int{1, 12, 12}},
		failSpec: xgft{2, []int{8, 16}, []int{1, 8}},
		sc:       experiments.QuickScale(),
		failReps: 5,
	}
	if c.smoke {
		s.fig4Spec = xgft{3, []int{4, 4, 4}, []int{1, 4, 4}}
		s.failSpec = xgft{2, []int{4, 4}, []int{1, 4}}
		s.sc.Sampling = stats.AdaptiveConfig{InitialSamples: 8, MaxSamples: 16, RelPrecision: 0.03}
		s.sc.FaultSeeds = 2
		s.failReps = 1
	}
	if c.traced {
		s.failReps = 1 // one repetition each way keeps the trace small
	}
	s.sc.Workers = c.procs
	s.fig4Topo = s.fig4Spec.build()
	s.fig4Topo.NewLinkExpander()
	s.failTopo = s.failSpec.build()
	s.ks = experiments.KGrid(s.fig4Topo)
	n := s.fig4Topo.NumProcessors()
	for i := 0; i < flowCheckPerms; i++ {
		rng := stats.Stream(c.seed, int64(i))
		s.checkPerms = append(s.checkPerms, traffic.FromPermutation(traffic.RandomPermutation(n, rng)))
	}
	return s
}

func fig4Schemes() []core.Selector {
	return []core.Selector{core.DModK{}, core.Shift1{}, core.Disjoint{}, core.RandomK{}}
}

func runFlowPaper(c *runCtx) error {
	var s *flowState
	c.setup(func() { s = newFlowState(c) }, func() {})

	reg := obs.Default()
	snap0, mem0 := reg.Snapshot(), readMem()
	start := time.Now()
	var fig4Times, failTimes []float64
	var fig4Tbl, failTbl *experiments.Table
	var longest time.Duration
	for {
		r0 := time.Now()
		runtime.GC() // as testing.B does before a timed run
		g0 := time.Now()
		fig4Tbl = experiments.Fig4Ks(s.fig4Topo, s.ks, s.sc, c.seed)
		fig4Times = append(fig4Times, time.Since(g0).Seconds())
		for i := 0; i < s.failReps; i++ {
			runtime.GC()
			f0 := time.Now()
			failTbl = experiments.FailureSweep(s.failTopo, s.sc, c.seed)
			failTimes = append(failTimes, time.Since(f0).Seconds())
		}
		if d := time.Since(r0); d > longest {
			longest = d
		}
		if !c.fits(time.Since(start), longest) {
			break
		}
	}
	wall := time.Since(start)
	delta, mem := reg.Delta(snap0), memSince(mem0)

	c.ops = int64(counter(delta, "experiments.cells_done"))
	c.setMedian("e2e.fig4_s", fig4Times)
	c.setMedian("e2e.failures_s", failTimes)
	// One op is one cell of the printed table.
	fig4Cells := float64(len(fig4Tbl.XValues) * len(fig4Tbl.Columns))
	failCells := float64(len(failTbl.XValues) * len(failTbl.Columns))
	c.set("nominal_per_s", fig4Cells/c.values["e2e.fig4_s"])
	c.set("stressed_per_s", failCells/c.values["e2e.failures_s"])

	s.checkFig4(c, fig4Tbl)
	s.checkFailures(c, failTbl)
	if !c.traced {
		return nil
	}

	for _, name := range []string{"flow.pairs_evaluated", "flow.multik_walks", "flow.repair_patched", "flow.repair_lazy", "experiments.cells_done"} {
		c.set(name, counter(delta, name))
	}
	busy := histSum(delta, "experiments.cell_seconds")
	c.set("experiments.cell_busy_s", busy)
	c.set("experiments.parallel_eff", busy/(float64(c.procs)*wall.Seconds()))
	c.setRuntime(mem)

	// Traced replay: the same protocol spelled out over the layers'
	// public functions, one repetition of each phase.
	c.tr = newTracer()
	var drawn atomic.Int64
	t0 := time.Now()
	root := c.tr.begin(0, layerDriver, "flow-paper")
	p4 := c.tr.begin(root, layerDriver, "fig4")
	fig4Replay := s.fig4Traced(c, p4, &drawn)
	c.tr.end(p4)
	pf := c.tr.begin(root, layerDriver, "failures")
	var failReplay *experiments.Table
	for i := 0; i < s.failReps; i++ {
		failReplay = s.failuresTraced(c, pf, &drawn)
	}
	c.tr.end(pf)
	c.tr.end(root)
	tracedWall := time.Since(t0)
	sum := c.tr.summarize()

	ok, detail := tablesEqual(fig4Tbl, fig4Replay)
	c.check("traced fig4 table == untraced", ok, "%s", detail)
	ok, detail = tablesEqual(failTbl, failReplay)
	c.check("traced failures table == untraced", ok, "%s", detail)
	c.set("trace.coverage", sum.coverage)
	c.check("trace.coverage >= 0.9", sum.coverage >= 0.9, "%.3f", sum.coverage)
	c.set("trace.overhead", tracedWall.Seconds()/wall.Seconds()-1)
	c.set("stats.samples_drawn", float64(drawn.Load()))
	c.set("traffic.perm_us", sum.byName["traffic.perm"].meanUs())
	c.set("flow.multik_walk_us.disjoint", sum.byName["flow.multik_walk.disjoint"].meanUs())
	c.set("flow.multik_walk_us.random", sum.byName["flow.multik_walk.random"].meanUs())
	c.set("flow.lazy_walk_us", sum.byName["flow.lazy_walk"].meanUs())
	c.set("flow.compiled_walk_us", sum.byName["flow.compiled_walk"].meanUs())
	c.set("flow.failure_cell_ms", sum.byName["experiments.failure_cell@0.05"].meanUs()/1e3)
	c.note("prediction: flow's walks dominate, traffic < 3%%: %s", sum.layerShares())
	s.probes(c)

	var err error
	c.traceOut, err = c.tr.write(outDir, c.workload, c.seed)
	return err
}

// checkFig4 applies the paper's invariants to a Figure 4 table and
// recomputes sampled permutations with the lazy per-K evaluator.
func (s *flowState) checkFig4(c *runCtx, tbl *experiments.Table) {
	t := s.fig4Topo
	schemes := fig4Schemes()
	// Theorem 1: with all X paths in use the load of a permutation is
	// optimal, exactly 1.
	thm1 := true
	for i, k := range s.ks {
		if k < t.MaxPaths() {
			continue
		}
		for j, sel := range schemes {
			if sel.MultiPath() && tbl.Cells[i][j].Mean != 1.0 {
				thm1 = false
			}
		}
	}
	c.check("Thm 1: multipath at K>=X is 1.0", thm1, "K=%d", t.MaxPaths())
	// Shift-1 and disjoint start from the d-mod-k path, so their K=1
	// rows equal the d-mod-k column.
	k1 := tbl.Cells[0]
	c.check("K=1 equals d-mod-k", s.ks[0] == 1 && k1[1].Mean == k1[0].Mean && k1[2].Mean == k1[0].Mean,
		"d-mod-k %v shift-1 %v disjoint %v", k1[0].Mean, k1[1].Mean, k1[2].Mean)

	// Spot check: the multi-K evaluator the table came from against the
	// lazy per-K evaluator, on permutations of this run's seed. The
	// single-path column is the same arithmetic and must match bitwise;
	// prefix columns fold count·share instead of repeated adds, so they
	// agree to rounding.
	spotKs := []int{1, 4, t.MaxPaths()}
	worst, exact := 0.0, true
	for _, sel := range schemes {
		seed := selectorSeeds(sel)[0]
		if !sel.MultiPath() {
			a := flow.NewEvaluator(core.NewRouting(t, sel, 1, seed))
			b := flow.NewMultiKEvaluator(core.NewRouting(t, sel, 1, seed), []int{1})
			out := make([]float64, 1)
			for _, tm := range s.checkPerms {
				b.MaxLoads(tm, nil, out)
				if math.Float64bits(a.MaxLoad(tm)) != math.Float64bits(out[0]) {
					exact = false
				}
			}
			continue
		}
		mk := flow.NewMultiKEvaluator(core.NewRouting(t, sel, t.MaxPaths(), seed), spotKs)
		out := make([]float64, len(spotKs))
		for _, tm := range s.checkPerms {
			mk.MaxLoads(tm, nil, out)
			for j, k := range spotKs {
				want := flow.NewEvaluator(core.NewRouting(t, sel, k, seed)).MaxLoad(tm)
				if d := math.Abs(out[j]-want) / want; d > worst {
					worst = d
				}
			}
		}
	}
	c.check("lazy evaluator recomputes samples", exact && worst < 1e-12,
		"%d permutations x 4 schemes, single-path bitwise %v, worst relative difference %.2g", len(s.checkPerms), exact, worst)
}

func (s *flowState) checkFailures(c *runCtx, tbl *experiments.Table) {
	sane := true
	for _, row := range tbl.Cells {
		for _, cell := range row {
			if math.IsNaN(cell.Mean) || cell.Mean < 1 || cell.Samples < 1 {
				sane = false
			}
		}
	}
	// Unlimited multi-path on the healthy fabric is optimal (Thm 1).
	um := tbl.Cells[0][len(tbl.Columns)-1].Mean
	c.check("failure sweep cells sane", sane && math.Abs(um-1) < 1e-12, "umulti at 0%% = %v", um)
}

// compileAuto applies flow.Experiment's CompileAuto policy: compile
// when the sample cap can amortize the N² build and the table fits the
// budget, else evaluate lazily.
func compileAuto(r *core.Routing, sampling stats.AdaptiveConfig) *core.CompiledRouting {
	ms := sampling.MaxSamples
	if ms <= 0 {
		ms = 12800
	}
	if r.Topology().NumProcessors() > ms {
		return nil
	}
	comp, err := core.CompileRouting(r, flow.DefaultCompileBudget)
	if err != nil {
		return nil
	}
	return comp
}

// fig4Traced is experiments.Fig4Ks over the layers' public functions,
// each call under a span.
func (s *flowState) fig4Traced(c *runCtx, parent int32, drawn *atomic.Int64) *experiments.Table {
	t, ks, tr := s.fig4Topo, s.ks, c.tr
	schemes := fig4Schemes()
	n := t.NumProcessors()
	tbl := &experiments.Table{XLabel: "K", Columns: make([]string, len(schemes))}
	for j, sel := range schemes {
		tbl.Columns[j] = sel.Name()
	}
	flat := make([]experiments.Cell, len(schemes))
	multi := make([][]experiments.Cell, len(schemes))
	perm := func(sp int32, i int) *traffic.Matrix {
		p := tr.begin(sp, layerTraffic, "traffic.perm")
		tm := traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(c.seed, int64(i))))
		tr.end(p)
		return tm
	}
	parallelCells(s.sc.Workers, len(schemes), func(j int) {
		sel := schemes[j]
		cell := tr.begin(parent, layerExperiments, "experiments.fig4_cell."+sel.Name())
		defer tr.end(cell)
		seeds := selectorSeeds(sel)
		if !sel.MultiPath() {
			pools := make([]*sync.Pool, len(seeds))
			for i, sd := range seeds {
				r := core.NewRouting(t, sel, 1, sd)
				cs := tr.begin(cell, layerCore, "core.compile")
				comp := compileAuto(r, s.sc.Sampling)
				tr.end(cs)
				pools[i] = &sync.Pool{New: func() any {
					if comp != nil {
						return flow.NewCompiledEvaluator(comp)
					}
					return flow.NewEvaluator(r)
				}}
			}
			run := tr.begin(cell, layerStats, "stats.sample_adaptive")
			res := stats.SampleAdaptive(s.sc.Sampling, func(i int) float64 {
				drawn.Add(1)
				sp := tr.begin(run, layerStats, "stats.sample")
				defer tr.end(sp)
				tm := perm(sp, i)
				sum := 0.0
				for _, p := range pools {
					ev := p.Get().(interface {
						MaxLoad(*traffic.Matrix) float64
					})
					w := tr.begin(sp, layerFlow, "flow.lazy_walk")
					sum += ev.MaxLoad(tm)
					tr.end(w)
					p.Put(ev)
				}
				return sum / float64(len(pools))
			})
			tr.end(run)
			flat[j] = experiments.Cell{Mean: res.Acc.Mean(), HalfWidth: res.HalfWidth, Samples: res.Acc.N()}
			return
		}
		kmax := ks[len(ks)-1]
		pools := make([]*sync.Pool, len(seeds))
		for i, sd := range seeds {
			r := core.NewRouting(t, sel, kmax, sd)
			cs := tr.begin(cell, layerCore, "core.compile")
			comp := compileAuto(r, s.sc.Sampling)
			tr.end(cs)
			pools[i] = &sync.Pool{New: func() any {
				if comp != nil {
					return flow.NewCompiledMultiKEvaluator(comp, ks)
				}
				return flow.NewMultiKEvaluator(r, ks)
			}}
		}
		nK := len(ks)
		walkName := "flow.multik_walk." + shortScheme(sel)
		run := tr.begin(cell, layerStats, "stats.sample_adaptive_vec")
		vec := stats.SampleAdaptiveVec(s.sc.Sampling, nK, func(i int, out []float64, active []bool) {
			drawn.Add(1)
			sp := tr.begin(run, layerStats, "stats.sample")
			defer tr.end(sp)
			tm := perm(sp, i)
			for j := range out {
				if active[j] {
					out[j] = 0
				}
			}
			tmp := make([]float64, nK)
			for _, p := range pools {
				ev := p.Get().(*flow.MultiKEvaluator)
				w := tr.begin(sp, layerFlow, walkName)
				ev.MaxLoads(tm, active, tmp)
				tr.end(w)
				p.Put(ev)
				for j := range out {
					if active[j] {
						out[j] += tmp[j]
					}
				}
			}
			for j := range out {
				if active[j] {
					out[j] /= float64(len(pools))
				}
			}
		})
		tr.end(run)
		col := make([]experiments.Cell, nK)
		for r := range ks {
			col[r] = experiments.Cell{Mean: vec.Accs[r].Mean(), HalfWidth: vec.HalfWidths[r], Samples: vec.Accs[r].N()}
		}
		multi[j] = col
	})
	for i, k := range ks {
		row := make([]experiments.Cell, len(schemes))
		for j, sel := range schemes {
			if sel.MultiPath() {
				row[j] = multi[j][i]
			} else {
				row[j] = flat[j]
			}
		}
		tbl.XValues = append(tbl.XValues, fmt.Sprintf("%d", k))
		tbl.Cells = append(tbl.Cells, row)
	}
	return tbl
}

// shortScheme is the scheme's name as the metric names spell it.
func shortScheme(sel core.Selector) string {
	switch sel.(type) {
	case core.Shift1:
		return "shift"
	case core.RandomK:
		return "random"
	}
	return sel.Name()
}

// failureGrid is the scheme × K grid of experiments.FailureSweep.
func failureGrid() []struct {
	sel core.Selector
	k   int
} {
	return []struct {
		sel core.Selector
		k   int
	}{
		{core.DModK{}, 1}, {core.Shift1{}, 2}, {core.Shift1{}, 4}, {core.Disjoint{}, 2},
		{core.Disjoint{}, 4}, {core.RandomK{}, 2}, {core.RandomK{}, 4}, {core.UMulti{}, 1},
	}
}

// failureBase is the fault-independent part of one sweep column.
type failureBase struct {
	routings []*core.Routing
	reps     []*core.DeltaRepairer // nil entry: lazy repaired evaluation
}

// failuresTraced is experiments.FailureSweep (and flow.FailureExperiment
// under it) over the layers' public functions.
func (s *flowState) failuresTraced(c *runCtx, parent int32, drawn *atomic.Int64) *experiments.Table {
	t, tr, sc := s.failTopo, c.tr, s.sc
	grid := failureGrid()
	fracs := sc.FaultFractions
	fseedsAll := make([]int64, sc.FaultSeeds)
	for i := range fseedsAll {
		fseedsAll[i] = c.seed + int64(i)*1000003
	}
	n := t.NumProcessors()
	ms := sc.Sampling.MaxSamples
	patchBudget := int64(ms) * int64(n)

	tbl := &experiments.Table{XLabel: "frac"}
	for _, g := range grid {
		name := g.sel.Name()
		if g.sel.MultiPath() {
			name = fmt.Sprintf("%s K=%d", name, g.k)
		}
		tbl.Columns = append(tbl.Columns, name)
	}
	cells := make([][]experiments.Cell, len(fracs))
	for i := range cells {
		cells[i] = make([]experiments.Cell, len(grid))
	}
	bases := make([]*failureBase, len(grid))
	onces := make([]sync.Once, len(grid))

	parallelCells(sc.Workers, len(fracs)*len(grid), func(x int) {
		fi, col := x/len(grid), x%len(grid)
		g, frac := grid[col], fracs[fi]
		cell := tr.begin(parent, layerExperiments, fmt.Sprintf("experiments.failure_cell@%g", frac))
		defer tr.end(cell)
		seeds := selectorSeeds(g.sel)
		onces[col].Do(func() {
			b := &failureBase{routings: make([]*core.Routing, len(seeds)), reps: make([]*core.DeltaRepairer, len(seeds))}
			for i, sd := range seeds {
				b.routings[i] = core.NewRouting(t, g.sel, g.k, sd)
				cs := tr.begin(cell, layerCore, "core.compile")
				comp := compileAuto(b.routings[i], sc.Sampling)
				tr.end(cs)
				if comp == nil {
					continue
				}
				ds := tr.begin(cell, layerCore, "core.delta_index")
				d, err := core.NewDeltaRepairer(comp)
				tr.end(ds)
				if err == nil {
					b.reps[i] = d
				}
			}
			bases[col] = b
		})
		base := bases[col]
		fseeds := fseedsAll
		if frac == 0 {
			fseeds = fseeds[:1]
		}
		var acc stats.Accumulator
		for _, fs := range fseeds {
			fsp := tr.begin(cell, layerTopology, "topology.random_faults")
			faults, err := topology.RandomCableFaultFraction(t, fs, frac)
			tr.end(fsp)
			if err != nil {
				panic(err)
			}
			pools := make([]*sync.Pool, len(seeds))
			for i := range seeds {
				rs := tr.begin(cell, layerCore, "core.repair")
				rr := base.routings[i].MustRepair(faults)
				tr.end(rs)
				d := base.reps[i]
				if d != nil && int64(d.AffectedCount(faults)) <= patchBudget {
					ps := tr.begin(cell, layerCore, "core.delta_patch")
					comp, err := d.CompileRepairedDelta(rr)
					tr.end(ps)
					if err != nil {
						panic(err)
					}
					pools[i] = &sync.Pool{New: func() any { return flow.NewCompiledEvaluator(comp) }}
				} else {
					pools[i] = &sync.Pool{New: func() any { return flow.NewDegradedEvaluator(rr) }}
				}
			}
			run := tr.begin(cell, layerStats, "stats.sample_adaptive")
			res := stats.SampleAdaptive(sc.Sampling, func(i int) float64 {
				drawn.Add(1)
				sp := tr.begin(run, layerStats, "stats.sample")
				defer tr.end(sp)
				p := tr.begin(sp, layerTraffic, "traffic.perm_small")
				tm := traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(c.seed, int64(i))))
				tr.end(p)
				sum := 0.0
				for _, pool := range pools {
					ev := pool.Get().(interface {
						MaxLoad(*traffic.Matrix) float64
					})
					w := tr.begin(sp, layerFlow, "flow.compiled_walk")
					sum += ev.MaxLoad(tm)
					tr.end(w)
					pool.Put(ev)
				}
				return sum / float64(len(pools))
			})
			tr.end(run)
			acc.Add(res.Acc.Mean())
		}
		out := experiments.Cell{Mean: acc.Mean(), Samples: acc.N()}
		if acc.N() > 1 {
			out.HalfWidth = acc.ConfidenceHalfWidth(0.99)
		}
		cells[fi][col] = out
	})
	for fi, frac := range fracs {
		tbl.XValues = append(tbl.XValues, fmt.Sprintf("%g%%", frac*100))
		tbl.Cells = append(tbl.Cells, cells[fi])
	}
	return tbl
}

// probes times the single-layer calls the flow-paper spans do not
// isolate.
func (s *flowState) probes(c *runCtx) {
	t := s.fig4Topo
	rng := rand.New(rand.NewSource(c.seed))
	pairs := 200000
	if c.smoke {
		pairs = 20000
	}

	c.set("topology.build_ms", 1e3*medianSeconds(func() { s.fig4Spec.build().NewLinkExpander() }))
	c.set("topology.expand_ns_per_path", probeExpand(t, rng, pairs))

	// Degraded-side probes run on the failure fabric at 5% failed cables.
	ft := s.failTopo
	faults, err := topology.RandomCableFaultFraction(ft, c.seed, 0.05)
	if err != nil {
		panic(err)
	}
	c.set("topology.alive_bits_ns_per_pair", probeAliveBits(ft, faults, rng, pairs))

	for _, sel := range fig4Schemes() {
		c.set("core.select_ns_per_pair."+shortScheme(sel), probeSelect(core.NewRouting(t, sel, 16, 101), rng, pairs))
	}

	r := core.NewRouting(ft, core.Disjoint{}, 4, 0)
	var comp *core.CompiledRouting
	secs := medianSeconds(func() {
		if comp, err = core.CompileRouting(r, flow.DefaultCompileBudget); err != nil {
			panic(err)
		}
	})
	c.set("core.compile_s", secs)
	c.set("core.compile_mbps", float64(comp.Bytes())/1e6/secs)
	probeDelta(c, comp, faults)
	rr := r.MustRepair(faults)
	c.set("core.repair_select_ns_per_pair", probeSelect(rr, rng, pairs))

	sampling := s.sc.Sampling
	sampling.Parallelism = 1
	var noop int64
	t0 := time.Now()
	stats.SampleAdaptiveVec(sampling, len(s.ks), func(i int, out []float64, active []bool) {
		noop++
		for j := range out {
			// A spread wide enough that no column converges early.
			out[j] = float64((i*31+j*17)%97 + 1)
		}
	})
	c.set("stats.sampler_us_per_sample", float64(time.Since(t0).Nanoseconds())/1e3/float64(noop))

	tm := s.checkPerms[0]
	reps := 50
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		flow.OptimalLoad(t, tm)
	}
	c.set("flow.optimal_us", float64(time.Since(t0).Nanoseconds())/1e3/float64(reps))
}

// probeExpand times LinkExpander.SetSource/PairLinks over seeded
// (src, dst, idx): many destinations per source, as a compile visits
// them.
func probeExpand(t *topology.Topology, rng *rand.Rand, paths int) float64 {
	n := t.NumProcessors()
	const sources = 64
	perSrc := paths / sources
	type q struct {
		dst, k int
		idx    [1]int32
	}
	qs := make([][]q, sources)
	srcs := make([]int, sources)
	for i := range qs {
		srcs[i] = rng.Intn(n)
		for len(qs[i]) < perSrc {
			dst := rng.Intn(n)
			k := t.NCALevel(srcs[i], dst)
			if k == 0 {
				continue
			}
			qs[i] = append(qs[i], q{dst, k, [1]int32{int32(rng.Intn(t.WProd(k)))}})
		}
	}
	e := t.NewLinkExpander()
	out := make([]int32, 2*t.H())
	t0 := time.Now()
	for i, src := range srcs {
		e.SetSource(src)
		for j := range qs[i] {
			x := &qs[i][j]
			e.PairLinks(x.dst, x.k, x.idx[:], out[:2*x.k])
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(sources*perSrc)
}

func seededPairs(n int, rng *rand.Rand, count int) [][2]int {
	ps := make([][2]int, 0, count)
	for len(ps) < count {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			ps = append(ps, [2]int{a, b})
		}
	}
	return ps
}

func probeAliveBits(t *topology.Topology, f *topology.FaultSet, rng *rand.Rand, count int) float64 {
	ps := seededPairs(t.NumProcessors(), rng, count)
	var bits []uint64
	t0 := time.Now()
	for _, p := range ps {
		bits = f.AlivePathBits(p[0], p[1], bits)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(count)
}

// probeSelect times path selection over seeded pairs, ns per pair; r is
// a *core.Routing or a *core.RepairedRouting.
func probeSelect(r interface {
	Topology() *topology.Topology
	AppendPathsScratch(ps *core.PathScratch, buf []int, src, dst int) []int
}, rng *rand.Rand, count int) float64 {
	ps := seededPairs(r.Topology().NumProcessors(), rng, count)
	scratch := core.NewPathScratch()
	var buf []int
	t0 := time.Now()
	for _, p := range ps {
		buf = r.AppendPathsScratch(scratch, buf[:0], p[0], p[1])
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(count)
}

// probeDelta times building the link→pairs index over a healthy table
// and one incremental repair against faults.
func probeDelta(c *runCtx, base *core.CompiledRouting, faults *topology.FaultSet) {
	var d *core.DeltaRepairer
	var err error
	c.set("core.delta_index_ms", 1e3*medianSeconds(func() {
		if d, err = core.NewDeltaRepairer(base); err != nil {
			panic(err)
		}
	}))
	c.set("core.delta_repair_ms", 1e3*medianSeconds(func() {
		if _, err := d.DeltaRepair(faults); err != nil {
			panic(err)
		}
	}))
	snap := obs.Default().Snapshot()
	if _, err := d.DeltaRepair(faults); err != nil {
		panic(err)
	}
	c.set("core.delta_patched_pairs", counter(obs.Default().Delta(snap), "core.delta_patched_pairs"))
}
