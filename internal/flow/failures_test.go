package flow

import (
	"math"
	"testing"

	"xgftsim/internal/core"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// TestDegradedEvaluatorMatchesCompiled: lazy repaired evaluation and
// the compiled repaired table produce identical loads, for every
// scheme (the randomized ones exercise the dedicated repair RNG
// substream both ways).
func TestDegradedEvaluatorMatchesCompiled(t *testing.T) {
	tp := topology.MustNew(2, []int{4, 4}, []int{1, 4})
	f, err := topology.RandomCableFaults(tp, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sels := []core.Selector{core.DModK{}, core.SModK{}, core.RandomSingle{}, core.Shift1{}, core.Disjoint{}, core.RandomK{}, core.UMulti{}}
	for _, sel := range sels {
		rr := core.NewRouting(tp, sel, 2, 17).MustRepair(f)
		c, err := core.CompileRepaired(rr, 0)
		if err != nil {
			t.Fatal(err)
		}
		lazy := NewDegradedEvaluator(rr)
		comp := NewCompiledEvaluator(c)
		for i := 0; i < 20; i++ {
			rng := stats.Stream(99, int64(i))
			tm := traffic.FromPermutation(traffic.RandomPermutation(tp.NumProcessors(), rng))
			a, b := lazy.MaxLoad(tm), comp.MaxLoad(tm)
			if a != b {
				t.Fatalf("%s perm %d: lazy %g, compiled %g", rr, i, a, b)
			}
		}
	}
}

// TestDegradedEvaluatorSkipsDisconnected: flows of disconnected pairs
// contribute no load instead of crashing or loading dead links.
func TestDegradedEvaluatorSkipsDisconnected(t *testing.T) {
	tp := topology.MustNew(2, []int{4, 4}, []int{1, 4})
	f := topology.NewFaultSet(tp)
	leaf := tp.NodeAt(1, 0)
	for p := 0; p < tp.NumParents(leaf); p++ {
		if err := f.FailCable(leaf, p); err != nil {
			t.Fatal(err)
		}
	}
	rr := core.NewRouting(tp, core.DModK{}, 1, 0).MustRepair(f)
	ev := NewDegradedEvaluator(rr)
	// One disconnected flow (leaf 0 to outside) and one connected one.
	tm := traffic.NewMatrix(tp.NumProcessors())
	tm.Add(0, 8, 1)
	tm.Add(8, 12, 1)
	loads := ev.Loads(tm)
	sum := 0.0
	for _, l := range loads {
		sum += l
	}
	want := float64(2 * tp.NCALevel(8, 12)) // only the connected flow's links
	if math.Abs(sum-want) > 1e-12 {
		t.Fatalf("total load %g, want %g (disconnected flow must contribute nothing)", sum, want)
	}
	if ev.Routing() != nil {
		t.Fatal("degraded evaluator claims a healthy routing")
	}
}

// TestFailureExperimentZeroFraction: a zero fault fraction reproduces
// the healthy experiment's mean with a single fault seed.
func TestFailureExperimentZeroFraction(t *testing.T) {
	tp := topology.MustNew(2, []int{4, 4}, []int{1, 4})
	sampling := stats.AdaptiveConfig{InitialSamples: 20, MaxSamples: 40, RelPrecision: 0.05}
	fx := FailureExperiment{Topo: tp, Sel: core.Disjoint{}, K: 2, Fraction: 0, PermSeed: 5, Sampling: sampling}.Run()
	hx := Experiment{Topo: tp, Sel: core.Disjoint{}, K: 2, PermSeed: 5, Sampling: sampling}.Run()
	if fx.Acc.N() != 1 {
		t.Fatalf("zero fraction ran %d fault seeds, want 1", fx.Acc.N())
	}
	if fx.Acc.Mean() != hx.Acc.Mean() {
		t.Fatalf("zero-fraction mean %g != healthy mean %g", fx.Acc.Mean(), hx.Acc.Mean())
	}
	if fx.HalfWidth != 0 {
		t.Fatalf("single fault seed reported half-width %g", fx.HalfWidth)
	}
}

// TestFailureExperimentRuns: a degraded sweep cell aggregates over its
// fault seeds, with compiled delta tables (the default at this size)
// and the lazy path forced by a 1-byte budget agreeing.
func TestFailureExperimentRuns(t *testing.T) {
	tp := topology.MustNew(2, []int{4, 4}, []int{1, 4})
	sampling := stats.AdaptiveConfig{InitialSamples: 20, MaxSamples: 40, RelPrecision: 0.05}
	base := FailureExperiment{
		Topo: tp, Sel: core.Shift1{}, K: 2,
		Fraction:   0.1,
		FaultSeeds: []int64{1, 2, 3},
		PermSeed:   5,
		Sampling:   sampling,
	}
	lazy := base
	lazy.CompileBudget = 1
	patched := obsCounter(t, "flow.repair_patched")
	a := base.Run()
	if obsCounter(t, "flow.repair_patched") == patched {
		t.Fatal("default policy patched no compiled table")
	}
	b := lazy.Run()
	if a.Acc.N() != 3 || b.Acc.N() != 3 {
		t.Fatalf("fault seed counts %d/%d, want 3", a.Acc.N(), b.Acc.N())
	}
	if a.Acc.Mean() != b.Acc.Mean() {
		t.Fatalf("compiled mean %g != lazy mean %g", a.Acc.Mean(), b.Acc.Mean())
	}
	if a.Acc.Mean() <= 0 {
		t.Fatalf("degraded mean %g not positive", a.Acc.Mean())
	}
	if a.HalfWidth < 0 {
		t.Fatalf("negative half-width %g", a.HalfWidth)
	}
	if a.Disconnected.N() != 0 {
		t.Fatal("disconnected scan ran without MeasureDisconnected")
	}
	md := base
	md.MeasureDisconnected = true
	mres := md.Run()
	if got := mres.Disconnected.N(); got != 3 {
		t.Fatalf("MeasureDisconnected recorded %d fault seeds, want 3", got)
	}
}
