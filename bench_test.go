package xgftsim_test

// One benchmark per table and figure of the paper plus the ablations
// in DESIGN.md, and micro-benchmarks for the hot paths. The artifact
// benchmarks regenerate their experiment at quick scale per iteration
// and report the headline number as a custom metric, so
//
//	go test -bench=Fig4a -benchtime=1x
//
// reproduces one artifact, and `go test -bench=. -benchmem` sweeps
// everything.

import (
	"math/rand"
	"testing"

	"xgftsim"
	"xgftsim/internal/core"
	"xgftsim/internal/experiments"
	"xgftsim/internal/flit"
	"xgftsim/internal/flow"
	"xgftsim/internal/lid"
	"xgftsim/internal/obs"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// benchScale is QuickScale further trimmed so a full -bench=. sweep
// stays in benchmark territory.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Sampling = stats.AdaptiveConfig{InitialSamples: 30, MaxSamples: 60, RelPrecision: 0.05}
	sc.FlitWarmup = 1500
	sc.FlitMeasure = 4000
	sc.Loads = []float64{0.4, 0.6, 0.8, 1.0}
	return sc
}

// lastColumnMean extracts a representative headline value (final row,
// final column — the strongest multi-path configuration).
func lastColumnMean(t *experiments.Table) float64 {
	row := t.Cells[len(t.Cells)-1]
	return row[len(row)-1].Mean
}

func benchFig4(b *testing.B, panel string, ks []int) {
	topo, err := experiments.Fig4Panel(panel)
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tbl := experiments.Fig4Ks(topo, ks, sc, 2012)
		b.ReportMetric(lastColumnMean(tbl), "maxload@Kmax")
	}
}

// BenchmarkFig4a regenerates Figure 4(a): XGFT(2;8,16;1,8).
func BenchmarkFig4a(b *testing.B) { benchFig4(b, "a", []int{1, 2, 4, 8}) }

// BenchmarkFig4b regenerates Figure 4(b): XGFT(3;8,8,16;1,8,8).
func BenchmarkFig4b(b *testing.B) { benchFig4(b, "b", []int{1, 4, 16, 64}) }

// BenchmarkFig4c regenerates Figure 4(c): XGFT(2;12,24;1,12).
func BenchmarkFig4c(b *testing.B) { benchFig4(b, "c", []int{1, 3, 6, 12}) }

// BenchmarkFig4d regenerates Figure 4(d): XGFT(3;12,12,24;1,12,12),
// the TACC-Ranger-scale tree.
func BenchmarkFig4d(b *testing.B) { benchFig4(b, "d", []int{1, 4, 16, 144}) }

// BenchmarkFailureSweep regenerates one panel of the failure sweep:
// avg max link load vs failed cable fraction with repaired routing on
// XGFT(2;8,16;1,8).
func BenchmarkFailureSweep(b *testing.B) {
	topo, err := experiments.Fig4Panel("a")
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	sc.FaultSeeds = 3
	sc.FaultFractions = []float64{0, 0.05, 0.10}
	for i := 0; i < b.N; i++ {
		tbl := experiments.FailureSweep(topo, sc, 2012)
		b.ReportMetric(lastColumnMean(tbl), "maxload:umulti@10%")
	}
}

// BenchmarkCompileRepaired measures the per-fault-placement degraded
// table build on the 3-level topology — since the delta-repair engine,
// that is an incremental patch against the sweep-shared base table
// (built once outside the loop, as flow.FailureBase amortizes it), not
// a whole-fabric recompile. The fault set fails 1% of cables, the
// low-failure regime the sweeps spend most placements in.
// BenchmarkCompileRepairedFull keeps the old full rebuild on the same
// fault set for comparison.
func BenchmarkCompileRepaired(b *testing.B) {
	t := benchTopo()
	r := core.NewRouting(t, core.Disjoint{}, 4, 0)
	base, err := core.CompileRouting(r, 0)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.NewDeltaRepairer(base)
	if err != nil {
		b.Fatal(err)
	}
	f, err := topology.RandomCableFaults(t, 7, t.NumCables()/100+1)
	if err != nil {
		b.Fatal(err)
	}
	rr, err := r.Repair(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := d.CompileRepairedDelta(rr)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(c.Bytes())
		b.ReportMetric(float64(c.PatchedPairs()), "patched-pairs")
	}
}

// BenchmarkCompileRepairedFull measures the whole-fabric repaired table
// build — every pair's policy-order liveness filtering plus the CSR
// compile — that CompileRepaired pays per fault placement without the
// delta engine.
func BenchmarkCompileRepairedFull(b *testing.B) {
	t := benchTopo()
	r := core.NewRouting(t, core.Disjoint{}, 4, 0)
	f, err := topology.RandomCableFaults(t, 7, t.NumCables()/100+1)
	if err != nil {
		b.Fatal(err)
	}
	rr, err := r.Repair(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := core.CompileRepaired(rr, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(c.Bytes())
	}
}

// BenchmarkDeltaRepairIndex measures the one-shot link→pairs reverse
// index build that a sweep amortizes across all its fault placements.
func BenchmarkDeltaRepairIndex(b *testing.B) {
	t := benchTopo()
	r := core.NewRouting(t, core.Disjoint{}, 4, 0)
	base, err := core.CompileRouting(r, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.NewDeltaRepairer(base)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(d.Bytes())
	}
}

// BenchmarkTable1 regenerates Table 1: flit-level saturation
// throughput on XGFT(3;4,4,8;1,4,4).
func BenchmarkTable1(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tbl := experiments.Table1(sc)
		b.ReportMetric(lastColumnMean(tbl), "thr:disjoint@K=8")
	}
}

// BenchmarkAdaptiveK regenerates the output-selector head-to-head:
// oblivious-K vs adaptive-K vs full-adaptive saturation throughput on
// XGFT(2;8,16;1,8).
func BenchmarkAdaptiveK(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tbl := experiments.AdaptiveK(sc)
		b.ReportMetric(tbl.Cells[0][1].Mean, "thr:adaptivek@uniform")
	}
}

// BenchmarkFig5 regenerates Figure 5: message delay vs offered load.
func BenchmarkFig5(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tbl := experiments.Fig5(sc)
		b.ReportMetric(tbl.Cells[0][0].Mean, "dmodk-delay@minload")
	}
}

// BenchmarkTheorem1 verifies PERF(UMULTI)=1 over sampled demands.
func BenchmarkTheorem1(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tbl := experiments.Theorem1(sc, 2012)
		worst := 0.0
		for _, row := range tbl.Cells {
			if row[0].Mean > worst {
				worst = row[0].Mean
			}
		}
		b.ReportMetric(worst, "worstPERF")
	}
}

// BenchmarkTheorem2 regenerates the adversarial worst-case table.
func BenchmarkTheorem2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.Theorem2()
		b.ReportMetric(tbl.Cells[len(tbl.Cells)-1][0].Mean, "dmodkPERF")
	}
}

// BenchmarkAblationTierBalance regenerates the per-tier load ablation
// behind the disjoint heuristic's design.
func BenchmarkAblationTierBalance(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tbl := experiments.TierBalance(sc, 4, 2012)
		// Tier 1-2 up: shift-1 (column 0) vs disjoint (column 2).
		b.ReportMetric(tbl.Cells[1][0].Mean/tbl.Cells[1][2].Mean, "shift/disjoint@tier1")
	}
}

// BenchmarkAblationLIDBudget regenerates the address-budget table.
func BenchmarkAblationLIDBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.LIDBudget()
		b.ReportMetric(float64(len(tbl.Cells)), "topologies")
	}
}

// BenchmarkAblationDiversity regenerates the LFT effective-diversity
// ablation.
func BenchmarkAblationDiversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.EffectiveDiversity(4)
		b.ReportMetric(tbl.Cells[1][1].Mean, "disjoint@NCA2")
	}
}

// BenchmarkAblationWorkload regenerates the uniform-workload-reading
// sensitivity study (DESIGN.md §5).
func BenchmarkAblationWorkload(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tbl := experiments.WorkloadSensitivity(sc)
		b.ReportMetric(tbl.Cells[len(tbl.Cells)-1][0].Mean, "disjoint8-fixed")
	}
}

// --- Micro-benchmarks for the hot paths -----------------------------

func benchTopo() *topology.Topology {
	return topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4})
}

// BenchmarkPathSelection measures per-pair path-set computation.
func BenchmarkPathSelection(b *testing.B) {
	t := benchTopo()
	n := t.NumProcessors()
	rng := rand.New(rand.NewSource(1))
	for _, sel := range []core.Selector{core.DModK{}, core.Shift1{}, core.Disjoint{}, core.RandomK{}} {
		b.Run(sel.Name(), func(b *testing.B) {
			buf := make([]int, 0, 16)
			for i := 0; i < b.N; i++ {
				src := i % n
				dst := (i*31 + 7) % n
				if src == dst {
					dst = (dst + 1) % n
				}
				buf = sel.Select(t, src, dst, 4, rng, buf[:0])
			}
		})
	}
}

// BenchmarkPathLinks measures link realization of one path.
func BenchmarkPathLinks(b *testing.B) {
	t := benchTopo()
	n := t.NumProcessors()
	buf := make([]topology.LinkID, 0, 8)
	for i := 0; i < b.N; i++ {
		src := i % n
		dst := (i*31 + 7) % n
		if src == dst {
			dst = (dst + 1) % n
		}
		buf = core.PathLinksForIndex(t, src, dst, i%t.NumPathsBetween(src, dst), buf[:0])
	}
}

// BenchmarkFlowEvaluator measures a full permutation load evaluation.
func BenchmarkFlowEvaluator(b *testing.B) {
	t := benchTopo()
	ev := flow.NewEvaluator(core.NewRouting(t, core.Disjoint{}, 4, 0))
	tm := traffic.FromPermutation(traffic.RandomPermutation(t.NumProcessors(), rand.New(rand.NewSource(2))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.MaxLoad(tm)
	}
}

// BenchmarkCompileRouting measures the one-shot CSR table build that
// Experiment.Run amortizes across all samples of a cell.
func BenchmarkCompileRouting(b *testing.B) {
	t := benchTopo()
	r := core.NewRouting(t, core.Disjoint{}, 4, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := core.CompileRouting(r, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(c.Bytes())
	}
}

// BenchmarkLoadsCompiled measures a full permutation load evaluation
// against the compiled CSR table; the steady state should be
// allocation-free.
func BenchmarkLoadsCompiled(b *testing.B) {
	t := benchTopo()
	r := core.NewRouting(t, core.Disjoint{}, 4, 0)
	c, err := core.CompileRouting(r, 0)
	if err != nil {
		b.Fatal(err)
	}
	ev := flow.NewCompiledEvaluator(c)
	tm := traffic.FromPermutation(traffic.RandomPermutation(t.NumProcessors(), rand.New(rand.NewSource(2))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.MaxLoad(tm)
	}
}

// BenchmarkMultiKLoads measures one multi-K walk serving a whole K
// grid (here 5 columns) against the lazy routing — the hot path of the
// collapsed Fig4 cells. The steady state must be allocation-free.
func BenchmarkMultiKLoads(b *testing.B) {
	t := benchTopo()
	ks := []int{1, 2, 4, 8, 16}
	ev := flow.NewMultiKEvaluator(core.NewRouting(t, core.Disjoint{}, 16, 0), ks)
	tm := traffic.FromPermutation(traffic.RandomPermutation(t.NumProcessors(), rand.New(rand.NewSource(2))))
	out := make([]float64, len(ks))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.MaxLoads(tm, nil, out)
	}
	b.ReportMetric(float64(len(ks)), "K-columns")
}

// BenchmarkMultiKLoadsRandom is BenchmarkMultiKLoads for the random
// heuristic, whose per-pair draws dominate the lazy multi-K walk.
func BenchmarkMultiKLoadsRandom(b *testing.B) {
	t := benchTopo()
	ks := []int{1, 2, 4, 8, 16}
	ev := flow.NewMultiKEvaluator(core.NewRouting(t, core.RandomK{}, 16, 0), ks)
	tm := traffic.FromPermutation(traffic.RandomPermutation(t.NumProcessors(), rand.New(rand.NewSource(2))))
	out := make([]float64, len(ks))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.MaxLoads(tm, nil, out)
	}
}

// BenchmarkOptimalLoad measures the subtree-cut OLOAD computation.
func BenchmarkOptimalLoad(b *testing.B) {
	t := benchTopo()
	tm := traffic.FromPermutation(traffic.RandomPermutation(t.NumProcessors(), rand.New(rand.NewSource(3))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = flow.OptimalLoad(t, tm)
	}
}

// BenchmarkFlitEngine measures simulated cycles per second of the
// flit-level simulator at a medium load.
func BenchmarkFlitEngine(b *testing.B) {
	t := benchTopo()
	pattern := traffic.NewPermutationPattern("bench",
		traffic.RandomDerangementish(t.NumProcessors(), rand.New(rand.NewSource(4))))
	cfg := flit.Config{
		Routing:       core.NewRouting(t, core.Disjoint{}, 4, 0),
		Pattern:       pattern,
		OfferedLoad:   0.6,
		WarmupCycles:  500,
		MeasureCycles: 2000,
		Seed:          5,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flit.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2500*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkFlitEngineSaturated measures the flit-level simulator past
// saturation: at load 0.9 the fabric accepts about 0.77, so every
// source builds a backlog over the 20k-cycle window, and B/op shows
// what that backlog costs to hold.
func BenchmarkFlitEngineSaturated(b *testing.B) {
	t := benchTopo()
	pattern := traffic.NewPermutationPattern("bench",
		traffic.RandomDerangementish(t.NumProcessors(), rand.New(rand.NewSource(4))))
	cfg := flit.Config{
		Routing:       core.NewRouting(t, core.Disjoint{}, 4, 0),
		Pattern:       pattern,
		OfferedLoad:   0.9,
		WarmupCycles:  2000,
		MeasureCycles: 20000,
		Seed:          5,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := flit.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Saturated {
			b.Fatalf("throughput %.3f at load 0.9: not saturated", res.Throughput)
		}
	}
	b.ReportMetric(22000*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkLFTBuild measures forwarding-table synthesis.
func BenchmarkLFTBuild(b *testing.B) {
	t := benchTopo()
	plan, err := lid.NewPlan(t, 4)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := lid.BuildFabric(plan, core.Disjoint{}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPI exercises the facade the examples use, keeping it
// honest under load.
func BenchmarkPublicAPI(b *testing.B) {
	topo, err := xgftsim.MPortNTree(8, 2)
	if err != nil {
		b.Fatal(err)
	}
	r := xgftsim.NewRouting(topo, xgftsim.Disjoint{}, 2, 0)
	tm := xgftsim.FromPermutation(xgftsim.ShiftPermutation(topo.NumProcessors(), 3))
	ev := xgftsim.NewEvaluator(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.MaxLoad(tm)
	}
}

// megaTopo is ~10x the paper's largest evaluated fabric: XGFT(3;
// 24,24,60;1,24,24) has 34560 processing nodes, far past what
// CompileRouting can hold under its default budget (the full table
// estimate is >100 GiB) — exactly the block-compiled regime.
func megaTopo() *topology.Topology {
	return topology.MustNew(3, []int{24, 24, 60}, []int{1, 24, 24})
}

// megaSegmentTM builds a fan-out demand from segment 0's sources to
// far destinations (NCA at the top level): every source in the segment
// sends to 64 spread-out targets, so block evaluation touches exactly
// one segment with enough pairs that the lazy/block comparison
// measures per-pair evaluation, not fixed per-walk overhead.
func megaSegmentTM(t *topology.Topology, bl *core.BlockCompiledRouting) *traffic.Matrix {
	n := t.NumProcessors()
	_, hi := bl.SegmentSpan(0)
	tm := traffic.NewMatrix(n)
	for src := 0; src < hi; src++ {
		for d := 0; d < 64; d++ {
			tm.Add(src, (src+n/2+d*37)%n, 1)
		}
	}
	return tm
}

// BenchmarkBlockCompiledLoads compares block-mode evaluation of the
// same mega-fabric demand against lazily re-deriving each pair's paths
// at 34560 endpoints. The two block rows measure different things:
// random/block walks a warm, pooled segment (generic selectors keep
// their tables), while disjoint/block builds no table and measures
// per-flow row derivation (core.RowDeriver) plus the same adds — the
// closed-form, table-free path. Their ratio is the derive-vs-warm-walk
// number DESIGN.md §10 records.
func BenchmarkBlockCompiledLoads(b *testing.B) {
	t := megaTopo()
	for _, tc := range []struct {
		name string
		sel  core.Selector
	}{
		{"disjoint", core.Disjoint{}},
		{"random", core.RandomK{}},
	} {
		r := core.NewRouting(t, tc.sel, 4, 0)
		bl := core.NewBlockCompiledRouting(r, core.BlockOptions{})
		tm := megaSegmentTM(t, bl)
		b.Run(tc.name+"/block", func(b *testing.B) {
			ev := flow.NewBlockEvaluator(bl, []int{4})
			out := [][]float64{make([]float64, 1)}
			tms := []*traffic.Matrix{tm}
			// Warm once: random-K's segment 0 compiles and stays pooled
			// (disjoint has nothing to build), and the evaluator's rows
			// are sized, so iterations measure evaluation alone.
			if err := ev.MaxLoadsBatch(tms, out); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ev.MaxLoadsBatch(tms, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/lazy", func(b *testing.B) {
			ev := flow.NewEvaluator(r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ev.MaxLoad(tm)
			}
		})
		bl.Close()
	}
}

// BenchmarkMegaFabricSweep runs the Fig4-style mega-fabric sweep end
// to end in block mode: 34560 endpoints, two permutation samples, two
// K columns, disjoint. The same sweep is impossible as one compiled
// table under the default budget; since disjoint is closed-form it
// runs table-free, so the cost is the 2 x 34560 rows it derives, not
// the 1.2 G rows a table would hold.
func BenchmarkMegaFabricSweep(b *testing.B) {
	cfg := experiments.MegaConfig{
		Topo:     megaTopo(),
		Ks:       []int{1, 4},
		Samples:  2,
		PermSeed: 2012,
		Schemes:  []core.Selector{core.Disjoint{}},
	}
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.MegaFabricSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastColumnMean(tbl), "maxload@Kmax")
	}
	// Peak resident segment bytes of the process: whatever earlier
	// benchmarks of the same invocation pooled, 0 when run alone — the
	// sweep itself holds no segment.
	peak := obs.Default().Gauge("core.segment_live_bytes_peak").Value()
	b.ReportMetric(float64(peak), "segpeak_bytes")
}
