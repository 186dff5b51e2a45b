package flow

import (
	"sync"
	"testing"

	"xgftsim/internal/core"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

func fiveSchemes() []core.Selector {
	return []core.Selector{core.DModK{}, core.SModK{}, core.Shift1{}, core.Disjoint{}, core.RandomK{}}
}

// diffOne asserts compiled Loads/MaxLoad equal the lazy evaluator
// bit-for-bit for one routing over the given demands.
func diffOne(t *testing.T, r *core.Routing, tms []*traffic.Matrix) {
	t.Helper()
	c, err := core.CompileRouting(r, 0)
	if err != nil {
		t.Fatalf("%s: compile: %v", r, err)
	}
	lazy := NewEvaluator(r)
	comp := NewCompiledEvaluator(c)
	for ti, tm := range tms {
		a := lazy.Loads(tm)
		b := comp.Loads(tm)
		for l := range a {
			if a[l] != b[l] {
				t.Fatalf("%s over %s, demand %d: link %d load %v (lazy) vs %v (compiled)",
					r, r.Topology(), ti, l, a[l], b[l])
			}
		}
		if ml, mc := lazy.MaxLoad(tm), comp.MaxLoad(tm); ml != mc {
			t.Fatalf("%s demand %d: MaxLoad %v (lazy) vs %v (compiled)", r, ti, ml, mc)
		}
	}
}

func permDemands(n, count int, seed int64) []*traffic.Matrix {
	tms := make([]*traffic.Matrix, 0, count+1)
	for i := 0; i < count; i++ {
		rng := stats.Stream(seed, int64(i))
		tms = append(tms, traffic.FromPermutation(traffic.RandomPermutation(n, rng)))
	}
	// One sparse non-uniform demand to cover fractional amounts.
	m := traffic.NewMatrix(n)
	rng := stats.Stream(seed, 1<<20)
	for i := 0; i < n/2; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src != dst {
			m.Add(src, dst, 0.25+rng.Float64())
		}
	}
	return append(tms, m)
}

// TestCompiledEvaluatorDifferential: compiled and lazy evaluation must
// agree exactly across all five paper schemes on the small Figure 4
// panels, several seeds and K values.
func TestCompiledEvaluatorDifferential(t *testing.T) {
	panels := []*topology.Topology{
		topology.MustNew(2, []int{8, 16}, []int{1, 8}),   // panel a
		topology.MustNew(2, []int{12, 24}, []int{1, 12}), // panel c
	}
	for _, tp := range panels {
		tms := permDemands(tp.NumProcessors(), 3, 42)
		for _, sel := range fiveSchemes() {
			for _, k := range []int{1, 2, 4, tp.MaxPaths()} {
				for _, seed := range []int64{0, 101, 505} {
					diffOne(t, core.NewRouting(tp, sel, k, seed), tms)
				}
			}
		}
	}
}

// TestCompiledEvaluatorDifferentialLarge extends the differential to
// the 3-level panels b and d (the TACC-Ranger-scale tree), where the
// compiled table is hundreds of megabytes; skipped with -short.
func TestCompiledEvaluatorDifferentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large-panel differential skipped in -short mode")
	}
	b := topology.MustNew(3, []int{8, 8, 16}, []int{1, 8, 8}) // panel b
	tms := permDemands(b.NumProcessors(), 2, 7)
	for _, sel := range fiveSchemes() {
		diffOne(t, core.NewRouting(b, sel, 2, 101), tms)
	}
	d := topology.MustNew(3, []int{12, 12, 24}, []int{1, 12, 12}) // panel d
	tmsD := permDemands(d.NumProcessors(), 1, 9)
	for _, sel := range []core.Selector{core.Disjoint{}, core.RandomK{}} {
		diffOne(t, core.NewRouting(d, sel, 2, 303), tmsD)
	}
}

// TestCompiledTableSharedRace exercises one compiled table from many
// goroutines at once (run under -race): each worker owns an evaluator
// but shares the read-only CSR arrays, and every result must match the
// single-threaded lazy answer.
func TestCompiledTableSharedRace(t *testing.T) {
	tp := topology.MustNew(2, []int{8, 16}, []int{1, 8})
	r := core.NewRouting(tp, core.RandomK{}, 4, 2012)
	c, err := core.CompileRouting(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 16
	n := tp.NumProcessors()
	want := make([][]float64, workers*perWorker)
	lazy := NewEvaluator(r)
	for i := range want {
		rng := stats.Stream(5, int64(i))
		tm := traffic.FromPermutation(traffic.RandomPermutation(n, rng))
		want[i] = append([]float64(nil), lazy.Loads(tm)...)
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := NewCompiledEvaluator(c)
			for i := w * perWorker; i < (w+1)*perWorker; i++ {
				rng := stats.Stream(5, int64(i))
				tm := traffic.FromPermutation(traffic.RandomPermutation(n, rng))
				got := ev.Loads(tm)
				for l := range got {
					if got[l] != want[i][l] {
						errs <- "concurrent compiled Loads diverged from lazy"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
}

// TestExperimentCompileModesAgree: the full adaptive permutation
// experiment must produce identical statistics on compiled tables (the
// default here: the sample cap equals N, so the build amortizes) and
// on the lazy path forced by a 1-byte budget.
func TestExperimentCompileModesAgree(t *testing.T) {
	tp := topology.MustNew(2, []int{8, 16}, []int{1, 8})
	cfg := stats.AdaptiveConfig{InitialSamples: 12, MaxSamples: tp.NumProcessors(), RelPrecision: 0.2}
	for _, sel := range []core.Selector{core.Disjoint{}, core.RandomK{}} {
		on := Experiment{Topo: tp, Sel: sel, K: 3, PermSeed: 11, Sampling: cfg}
		off := on
		off.CompileBudget = 1
		fallbacks := met.compileFallbackBudget.Value() + met.compileFallbackAmortize.Value()
		a := on.Run()
		if met.compileFallbackBudget.Value()+met.compileFallbackAmortize.Value() != fallbacks {
			t.Fatalf("%s: default policy did not compile", sel.Name())
		}
		b := off.Run()
		if a.Acc.Mean() != b.Acc.Mean() || a.Acc.N() != b.Acc.N() || a.HalfWidth != b.HalfWidth {
			t.Fatalf("%s: compiled experiment (mean %v, n %d) != lazy (mean %v, n %d)",
				sel.Name(), a.Acc.Mean(), a.Acc.N(), b.Acc.Mean(), b.Acc.N())
		}
	}
}

// TestEvaluatorOptimalLoadResident: the evaluator-resident OLOAD and
// PERF must match the package-level functions.
func TestEvaluatorOptimalLoadResident(t *testing.T) {
	tp := topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4})
	r := core.NewRouting(tp, core.Disjoint{}, 4, 0)
	ev := NewEvaluator(r)
	for i := 0; i < 5; i++ {
		rng := stats.Stream(3, int64(i))
		tm := traffic.FromPermutation(traffic.RandomPermutation(tp.NumProcessors(), rng))
		if got, want := ev.OptimalLoad(tm), OptimalLoad(tp, tm); got != want {
			t.Fatalf("demand %d: resident OLOAD %v, free function %v", i, got, want)
		}
		if got, want := ev.PerformanceRatio(tm), PerformanceRatio(r, tm); got != want {
			t.Fatalf("demand %d: resident PERF %v, free function %v", i, got, want)
		}
	}
}
