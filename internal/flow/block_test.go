package flow

import (
	"math"
	"sort"
	"testing"

	"xgftsim/internal/core"
	"xgftsim/internal/obs"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

func blockFlowTopo(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4})
}

// TestBlockEvaluatorMatchesLazy pins the bit-identity contract: for
// source-sorted matrices, MaxLoadsBatch over streamed segments equals
// the lazy per-K Evaluator's MaxLoad exactly (same shares, same add
// order, so the same floating-point results bit for bit).
func TestBlockEvaluatorMatchesLazy(t *testing.T) {
	topo := blockFlowTopo(t)
	n := topo.NumProcessors()
	tms := []*traffic.Matrix{
		traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(7, 0))),
		traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(7, 1))),
		traffic.FromPermutation(traffic.ShiftPermutation(n, 3)),
		traffic.FromPermutation(traffic.Tornado(n)),
	}
	for _, tc := range []struct {
		name string
		sel  core.Selector
		ks   []int
	}{
		{"disjoint", core.Disjoint{}, []int{1, 2, 4, 8}},
		{"random", core.RandomK{}, []int{1, 3, 4}},
		{"shift1", core.Shift1{}, []int{2, 4}},
		{"dmodk", core.DModK{}, []int{1, 4}},
		{"umulti", core.UMulti{}, []int{16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kmax := tc.ks[len(tc.ks)-1]
			b := core.NewBlockCompiledRouting(core.NewRouting(topo, tc.sel, kmax, 11), core.BlockOptions{SegmentBytes: 64 << 10})
			defer b.Close()
			e := NewBlockEvaluator(b, tc.ks)
			out := make([][]float64, len(tms))
			for i := range out {
				out[i] = make([]float64, len(tc.ks))
			}
			if err := e.MaxLoadsBatch(tms, out); err != nil {
				t.Fatalf("MaxLoadsBatch: %v", err)
			}
			for j, k := range tc.ks {
				ek := k
				if cl := classify(tc.sel); cl == classUnlimited || cl == classSingle {
					ek = kmax // lazy path ignores K differences within a class
				}
				lazy := NewEvaluator(core.NewRouting(topo, tc.sel, ek, 11))
				for s, tm := range tms {
					want := lazy.MaxLoad(tm)
					if got := out[s][j]; got != want {
						t.Fatalf("K=%d matrix %d: block %v != lazy %v", k, s, got, want)
					}
				}
			}
		})
	}
}

// TestBlockEvaluatorShardedMerge pins the sharded path: two disjoint
// segment ranges accumulated by separate evaluators, merged by sparse
// row union, equal the single-walk result exactly.
func TestBlockEvaluatorShardedMerge(t *testing.T) {
	topo := blockFlowTopo(t)
	n := topo.NumProcessors()
	tms := []*traffic.Matrix{
		traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(3, 0))),
	}
	ks := []int{1, 4}
	b := core.NewBlockCompiledRouting(core.NewRouting(topo, core.Disjoint{}, 4, 0), core.BlockOptions{SegmentBytes: 64 << 10})
	defer b.Close()
	if b.NumSegments() < 2 {
		t.Fatalf("need >= 2 segments, got %d", b.NumSegments())
	}

	whole := NewBlockEvaluator(b, ks)
	want := [][]float64{make([]float64, len(ks))}
	if err := whole.MaxLoadsBatch(tms, want); err != nil {
		t.Fatalf("MaxLoadsBatch: %v", err)
	}

	mid := b.NumSegments() / 2
	shards := []*BlockEvaluator{NewBlockEvaluator(b, ks), NewBlockEvaluator(b, ks)}
	if err := shards[0].AccumulateSegments(tms, 0, mid); err != nil {
		t.Fatalf("shard 0: %v", err)
	}
	if err := shards[1].AccumulateSegments(tms, mid, b.NumSegments()); err != nil {
		t.Fatalf("shard 1: %v", err)
	}
	scratch := make([]float64, topo.NumLinks())
	for j := range ks {
		var union []int32
		for _, sh := range shards {
			row := sh.Row(0, j)
			for _, l := range sh.RowTouched(0, j) {
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
		if mx != want[0][j] {
			t.Fatalf("K=%d: sharded merge %v != whole walk %v", ks[j], mx, want[0][j])
		}
	}
}

// closedFormSelectors are the schemes a BlockEvaluator runs table-free.
var closedFormSelectors = []core.Selector{core.DModK{}, core.SModK{}, core.Shift1{}, core.Disjoint{}, core.UMulti{}}

// sortedBySource returns tm's flows stably sorted by source — the
// order a block walk visits them in.
func sortedBySource(tm *traffic.Matrix) *traffic.Matrix {
	flows := append([]traffic.Flow(nil), tm.Flows()...)
	sort.SliceStable(flows, func(i, j int) bool { return flows[i].Src < flows[j].Src })
	out := traffic.NewMatrix(tm.N)
	for _, f := range flows {
		out.Add(f.Src, f.Dst, f.Amount)
	}
	return out
}

// TestBlockDerivedMatchesLazy pins the table-free path's bit-identity
// on an asymmetric fabric, at path limits that are not powers of two
// (shares of 1/3 and 1/5 round, so any change of add order shows): for
// every closed-form selector the derived walk equals the lazy per-K
// Evaluator exactly, compiles no segment, and reports its rows in
// flow.block_rows_derived. Unsorted matrices are walked in stable
// source order, so their reference is the lazy evaluation of the
// source-sorted copy.
func TestBlockDerivedMatchesLazy(t *testing.T) {
	topo := topology.MustNew(3, []int{4, 3, 2}, []int{1, 2, 3})
	n := topo.NumProcessors()
	unsorted := traffic.NewMatrix(n)
	for i := 0; i < 3*n; i++ {
		src := (i*7 + 3) % n
		if dst := (src + 1 + i%(n-1)) % n; dst != src {
			unsorted.Add(src, dst, 0.25+float64(i%5))
		}
	}
	tms := []*traffic.Matrix{
		traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(29, 0))),
		traffic.FromPermutation(traffic.Tornado(n)),
		unsorted,
	}
	refs := []*traffic.Matrix{tms[0], tms[1], sortedBySource(unsorted)}
	ks := []int{1, 2, 3, 5, topo.MaxPaths()}
	kmax := ks[len(ks)-1]
	var flowCount int64
	for _, tm := range tms {
		flowCount += int64(tm.NumFlows())
	}
	for _, sel := range closedFormSelectors {
		t.Run(sel.Name(), func(t *testing.T) {
			b := core.NewBlockCompiledRouting(core.NewRouting(topo, sel, kmax, 0), core.BlockOptions{SegmentBytes: 4 << 10})
			defer b.Close()
			if b.NumSegments() < 2 {
				t.Fatalf("want multiple segments, got %d", b.NumSegments())
			}
			e := NewBlockEvaluator(b, ks)
			out := make([][]float64, len(tms))
			for i := range out {
				out[i] = make([]float64, len(ks))
			}
			compiled0 := obsCounter(t, "core.segments_compiled")
			walked0 := obsCounter(t, "flow.block_segments_walked")
			derived0 := obsCounter(t, "flow.block_rows_derived")
			if err := e.MaxLoadsBatch(tms, out); err != nil {
				t.Fatalf("MaxLoadsBatch: %v", err)
			}
			if d := obsCounter(t, "core.segments_compiled") - compiled0; d != 0 {
				t.Fatalf("table-free walk compiled %d segments", d)
			}
			if d := obsCounter(t, "flow.block_segments_walked") - walked0; d != 0 {
				t.Fatalf("table-free walk fetched %d segments", d)
			}
			if d := obsCounter(t, "flow.block_rows_derived") - derived0; d != flowCount {
				t.Fatalf("flow.block_rows_derived moved by %d, want %d (one per flow)", d, flowCount)
			}
			for j, k := range ks {
				lazy := NewEvaluator(core.NewRouting(topo, sel, k, 0))
				for s, ref := range refs {
					want := lazy.MaxLoad(ref)
					if got := out[s][j]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("K=%d matrix %d: derived %v != lazy %v", k, s, got, want)
					}
				}
			}
		})
	}
}

// TestBlockDerivedSteadyStateAllocs pins the CI allocation contract of
// the table-free path: once the evaluator's rows are sized, a walk —
// reset, row derivation, accumulation, metric folds — allocates
// nothing.
func TestBlockDerivedSteadyStateAllocs(t *testing.T) {
	topo := blockFlowTopo(t)
	n := topo.NumProcessors()
	tms := []*traffic.Matrix{
		traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(17, 0))),
		traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(17, 1))),
	}
	for _, sel := range closedFormSelectors {
		b := core.NewBlockCompiledRouting(core.NewRouting(topo, sel, 4, 0), core.BlockOptions{SegmentBytes: 64 << 10})
		e := NewBlockEvaluator(b, []int{1, 3, 4})
		walk := func() {
			if err := e.AccumulateSegments(tms, 0, b.NumSegments()); err != nil {
				t.Fatalf("AccumulateSegments: %v", err)
			}
		}
		walk() // size the rows and touched lists
		if allocs := testing.AllocsPerRun(10, walk); allocs != 0 {
			t.Errorf("%s: derived AccumulateSegments allocates %v objects per call, want 0", sel.Name(), allocs)
		}
		b.Close()
	}
}

// TestCompiledFallbacksAreCounted pins the compile policy's
// observability: both compiled→lazy decisions (budget refusal,
// amortization refusal) increment dedicated counters, for Experiment,
// MultiKExperiment and FailureExperiment alike.
func TestCompiledFallbacksAreCounted(t *testing.T) {
	topo := blockFlowTopo(t)
	// fits lets the sample cap amortize the table, so only the budget
	// can refuse it; wide caps the samples below the fabric's N.
	fits := stats.AdaptiveConfig{InitialSamples: 2, MaxSamples: topo.NumProcessors(), RelPrecision: 0.5}
	wide := stats.AdaptiveConfig{InitialSamples: 2, MaxSamples: 8, RelPrecision: 0.5}
	sel := core.Disjoint{}
	for _, tc := range []struct {
		name string
		run  func(budget int64, sampling stats.AdaptiveConfig)
	}{
		{"Experiment", func(budget int64, sampling stats.AdaptiveConfig) {
			Experiment{Topo: topo, Sel: sel, K: 4, Sampling: sampling, CompileBudget: budget}.Run()
		}},
		{"MultiKExperiment", func(budget int64, sampling stats.AdaptiveConfig) {
			MultiKExperiment{Topo: topo, Sel: sel, Ks: []int{1, 4}, Sampling: sampling, CompileBudget: budget}.Run()
		}},
		{"FailureExperiment", func(budget int64, sampling stats.AdaptiveConfig) {
			FailureExperiment{Topo: topo, Sel: sel, K: 4, Fraction: 0.05, FaultSeeds: []int64{1},
				Sampling: sampling, CompileBudget: budget}.Run()
		}},
	} {
		budgetBefore, amortBefore := met.compileFallbackBudget.Value(), met.compileFallbackAmortize.Value()
		tc.run(1, fits)
		if got := met.compileFallbackBudget.Value() - budgetBefore; got != 1 {
			t.Errorf("%s: 1-byte budget counted %d budget fallbacks, want 1", tc.name, got)
		}
		if met.compileFallbackAmortize.Value() != amortBefore {
			t.Errorf("%s: budget refusal counted as an amortization fallback", tc.name)
		}

		budgetBefore, amortBefore = met.compileFallbackBudget.Value(), met.compileFallbackAmortize.Value()
		tc.run(0, wide)
		if got := met.compileFallbackAmortize.Value() - amortBefore; got != 1 {
			t.Errorf("%s: %d nodes > 8-sample cap counted %d amortization fallbacks, want 1", tc.name, topo.NumProcessors(), got)
		}
		if met.compileFallbackBudget.Value() != budgetBefore {
			t.Errorf("%s: amortization refusal counted as a budget fallback", tc.name)
		}
	}
}

func obsCounter(t *testing.T, name string) int64 {
	t.Helper()
	return obs.Default().Counter(name).Value()
}
