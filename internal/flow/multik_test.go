package flow

import (
	"fmt"
	"math"
	"testing"

	"xgftsim/internal/core"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}

// TestMultiKEvaluatorMatchesPerK pins the multi-K evaluator against
// independent per-K evaluators on every scheme class and both
// backends, under permutations and under mixed-amount demands, on
// grids that include non-power-of-two K values: each K column's MLOAD
// must agree within 1e-12 (count-then-divide / the Theorem-1 OLOAD
// shortcut vs repeated adds), columns whose effective count is X at
// every level must be bit-identical to OptimalLoad (they are computed
// by the same subtree-cut pass, never walked), and the lazy and
// compiled sources must agree bit for bit (they feed the same path
// indices in the same order). Every walked column must also equal, bit
// for bit, the per-path walk the prefix-counting one replaced
// (oldMultiKLoads): both demands are dyadic, so adding amount × count
// once is exact. The last grid's top level has more than 64 Ki
// path-offset entries, so its offsets are decoded per path instead of
// read from the topology's table.
func TestMultiKEvaluatorMatchesPerK(t *testing.T) {
	grids := append([]struct {
		topo *topology.Topology
		ks   []int
	}{
		{topology.MustNew(2, []int{4, 8}, []int{1, 4}), []int{1, 2, 3, 4}},            // X = 4
		{topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3}), []int{1, 2, 3, 11, 12}}, // X = 12, multi-level
		{topology.MustNew(2, []int{5, 20}, []int{1, 18}), []int{1, 2, 3, 17, 18}},     // X = 18, sparse random regime
	}, multiKGrids...)
	noTable := topology.MustNew(2, []int{2, 3}, []int{2, 16385}) // X = 32770, 2X offsets
	if noTable.PathOffsetTable(2) != nil || noTable.PathOffsetTable(1) == nil {
		t.Fatalf("%s: want a path-offset table at level 1 only", noTable)
	}
	grids = append(grids, struct {
		topo *topology.Topology
		ks   []int
	}{noTable, []int{1, 2, 5, 9}})
	sels := []core.Selector{core.Shift1{}, core.Disjoint{}, core.RandomK{}, core.DModK{}, core.UMulti{}}
	for _, g := range grids {
		tp, ks := g.topo, g.ks
		n := tp.NumProcessors()
		for _, sel := range sels {
			lazy, comp := newMultiKPair(t, tp, sel, ks, 7)
			outL := make([]float64, len(ks))
			outC := make([]float64, len(ks))
			for sample := 0; sample < 4; sample++ {
				rng := stats.Stream(99, int64(sample))
				for _, tm := range []*traffic.Matrix{
					traffic.FromPermutation(traffic.RandomPermutation(n, rng)),
					mixedAmountMatrix(n, int64(sample)),
				} {
					lazy.MaxLoads(tm, nil, outL)
					comp.MaxLoads(tm, nil, outC)
					old := oldMultiKLoads(lazy, core.NewRouting(tp, sel, ks[len(ks)-1], 7), tm)
					for j, k := range ks {
						if outL[j] != outC[j] {
							t.Errorf("%s on %s K=%d sample %d: lazy multi-K %v, compiled %v", sel.Name(), tp, k, sample, outL[j], outC[j])
						}
						if !lazy.oload[j] && math.Float64bits(outL[j]) != math.Float64bits(old[j]) {
							t.Errorf("%s on %s K=%d sample %d: multi-K %v, per-path walk %v", sel.Name(), tp, k, sample, outL[j], old[j])
						}
						ref := NewEvaluator(core.NewRouting(tp, sel, k, 7)).MaxLoad(tm)
						if d := relDiff(outL[j], ref); d > 1e-12 {
							t.Errorf("%s on %s K=%d sample %d: multi-K %v vs per-K %v (rel %g)",
								sel.Name(), tp, k, sample, outL[j], ref, d)
						}
						_, isUMulti := sel.(core.UMulti)
						if x := tp.MaxPaths(); (sel.MultiPath() && k >= x) || isUMulti {
							if opt := OptimalLoad(tp, tm); outL[j] != opt {
								t.Errorf("%s on %s K=%d (X=%d) sample %d: Theorem-1 column must equal OptimalLoad %v exactly, got %v",
									sel.Name(), tp, k, x, sample, opt, outL[j])
							}
						}
					}
					if lazy.OptimalLoad(tm) != OptimalLoad(tp, tm) {
						t.Errorf("OptimalLoad mismatch on %s", tp)
					}
				}
			}
		}
	}
}

// oldMultiKLoads is the multi-K walk before it counted by path prefix,
// kept as a reference: it expands every path of r (routed at the grid's
// largest K) into links with core.AppendPathSetLinks and adds the
// flow's amount once per link hit into e's bucket layout, one full row
// per link, then folds every row into each walked column's maximum.
// Theorem-1 columns of the result are left at zero.
func oldMultiKLoads(e *MultiKEvaluator, r *core.Routing, tm *traffic.Matrix) []float64 {
	h := len(e.plans) - 1
	out := make([]float64, len(e.ks))
	if e.nb == 0 { // every column is a Theorem-1 column
		return out
	}
	hist := make([]float64, e.topo.NumLinks()*e.nb)
	for _, f := range tm.Flows() {
		k := e.topo.NCALevel(f.Src, f.Dst)
		p := &e.plans[k]
		paths := r.Paths(f.Src, f.Dst)[:p.bounds[len(p.bounds)-1]]
		links := core.AppendPathSetLinks(e.topo, f.Src, f.Dst, paths, nil)
		prev := 0
		for q, b := range p.bounds {
			for _, l := range links[prev*2*k : b*2*k] {
				hist[int(l)*e.nb+p.off+q] += f.Amount
			}
			prev = b
		}
	}
	for l := 0; l < e.topo.NumLinks(); l++ {
		row := hist[l*e.nb : (l+1)*e.nb]
		for _, p := range e.plans[1:] {
			sum := 0.0
			for q, b := range p.bounds {
				sum += row[p.off+q]
				row[p.off+q] = sum / float64(b)
			}
		}
		for j := range e.ks {
			if e.oload[j] {
				continue
			}
			v := 0.0
			for _, at := range e.at[j*h : j*h+h] {
				v += row[at]
			}
			out[j] = max(out[j], v)
		}
	}
	return out
}

// TestMultiKExperimentMatchesPerCell is the pipeline-level
// differential: MultiKExperiment must reproduce per-K flow.Experiment
// runs exactly — same sample counts (the vector sampler freezes each
// component where a scalar run stops), same half-widths and
// convergence flags, and means within 1e-12 — including when different
// K columns converge after different numbers of batches. Random-K
// averages five seeds over two sampling workers on both sources, so
// pooled evaluators walk every seed's routing concurrently (make ci
// runs this under -race).
func TestMultiKExperimentMatchesPerCell(t *testing.T) {
	tp := topology.MustNew(3, []int{2, 2, 4}, []int{1, 2, 2})
	ks := []int{1, 2, 3, 4}
	cfg := stats.AdaptiveConfig{InitialSamples: 20, MaxSamples: 160, RelPrecision: 0.02, Parallelism: 2}
	for _, c := range []struct {
		sel    core.Selector
		budget int64 // 1 forces the lazy source
	}{{core.Disjoint{}, 0}, {core.RandomK{}, 0}, {core.RandomK{}, 1}} {
		sel, name := c.sel, fmt.Sprintf("%s (compile budget %d)", c.sel.Name(), c.budget)
		vec := MultiKExperiment{Topo: tp, Sel: sel, Ks: ks, PermSeed: 42, Sampling: cfg, CompileBudget: c.budget}.Run()
		sawDifferentN := false
		for j, k := range ks {
			res := Experiment{Topo: tp, Sel: sel, K: k, PermSeed: 42, Sampling: cfg}.Run()
			if got, want := vec.Accs[j].N(), res.Acc.N(); got != want {
				t.Errorf("%s K=%d: multi-K sampled %d, per-cell %d", name, k, got, want)
			}
			if d := relDiff(vec.Accs[j].Mean(), res.Acc.Mean()); d > 1e-12 {
				t.Errorf("%s K=%d: multi-K mean %v vs per-cell %v (rel %g)", name, k, vec.Accs[j].Mean(), res.Acc.Mean(), d)
			}
			if d := relDiff(vec.HalfWidths[j], res.HalfWidth); d > 1e-9 {
				t.Errorf("%s K=%d: multi-K half-width %v vs per-cell %v", name, k, vec.HalfWidths[j], res.HalfWidth)
			}
			if vec.Converged[j] != res.Converged {
				t.Errorf("%s K=%d: converged %v vs per-cell %v", name, k, vec.Converged[j], res.Converged)
			}
			if j > 0 && vec.Accs[j].N() != vec.Accs[0].N() {
				sawDifferentN = true
			}
		}
		if !sawDifferentN {
			t.Logf("%s: all K columns converged at the same batch (freezing untested here)", name)
		}
	}
}

// TestLoadsTouchedClearing differential-tests the touched-link
// clearing in both per-K evaluators against an independent naive
// accumulation, across repeated calls with different matrices (the
// second call must fully clear the first call's footprint).
func TestLoadsTouchedClearing(t *testing.T) {
	tp := topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3})
	n := tp.NumProcessors()
	for _, sel := range []core.Selector{core.DModK{}, core.Disjoint{}, core.RandomK{}} {
		r := core.NewRouting(tp, sel, 3, 11)
		lazy := NewEvaluator(r)
		c, err := core.CompileRouting(r, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		comp := NewCompiledEvaluator(c)
		for sample := 0; sample < 3; sample++ {
			rng := stats.Stream(7, int64(sample))
			tm := traffic.FromPermutation(traffic.RandomPermutation(n, rng))
			naive := make([]float64, tp.NumLinks())
			for _, f := range tm.Flows() {
				paths := r.Paths(f.Src, f.Dst)
				links := core.AppendPathSetLinks(tp, f.Src, f.Dst, paths, nil)
				share := f.Amount / float64(len(paths))
				for _, l := range links {
					naive[l] += share
				}
			}
			wantMax := 0.0
			for _, v := range naive {
				if v > wantMax {
					wantMax = v
				}
			}
			gotL := lazy.Loads(tm)
			for l := range naive {
				if gotL[l] != naive[l] {
					t.Fatalf("%s sample %d: lazy loads[%d] = %v, naive %v", sel.Name(), sample, l, gotL[l], naive[l])
				}
			}
			if got := lazy.MaxLoad(tm); got != wantMax {
				t.Fatalf("%s sample %d: lazy MaxLoad %v, naive %v", sel.Name(), sample, got, wantMax)
			}
			gotC := comp.Loads(tm)
			for l := range naive {
				if gotC[l] != naive[l] {
					t.Fatalf("%s sample %d: compiled loads[%d] = %v, naive %v", sel.Name(), sample, l, gotC[l], naive[l])
				}
			}
			if got := comp.MaxLoad(tm); got != wantMax {
				t.Fatalf("%s sample %d: compiled MaxLoad %v, naive %v", sel.Name(), sample, got, wantMax)
			}
		}
	}
}

// naiveLoads accumulates tm's link loads directly from each pair's path
// set (empty sets carry nothing) and returns them with their maximum.
func naiveLoads(tp *topology.Topology, tm *traffic.Matrix, paths func(src, dst int) []int) ([]float64, float64) {
	loads := make([]float64, tp.NumLinks())
	for _, f := range tm.Flows() {
		p := paths(f.Src, f.Dst)
		if len(p) == 0 {
			continue
		}
		share := f.Amount / float64(len(p))
		for _, l := range core.AppendPathSetLinks(tp, f.Src, f.Dst, p, nil) {
			loads[l] += share
		}
	}
	max := 0.0
	for _, v := range loads {
		if v > max {
			max = v
		}
	}
	return loads, max
}

// evalSource is one source an Evaluator reads path sets from, with the
// path-set function a naive reference expands for it.
type evalSource struct {
	name  string
	ev    *Evaluator
	paths func(src, dst int) []int
}

// evalSources builds r's evaluator over each of the four sources the
// flow experiments use: lazy and compiled on the healthy fabric, lazy
// (degraded) and delta-compiled (core.DeltaRepairer) under faults.
func evalSources(t *testing.T, r *core.Routing, faults *topology.FaultSet) []evalSource {
	t.Helper()
	c, err := core.CompileRouting(r, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDeltaRepairer(c)
	if err != nil {
		t.Fatal(err)
	}
	rr := r.MustRepair(faults)
	cd, err := d.CompileRepairedDelta(rr)
	if err != nil {
		t.Fatal(err)
	}
	return []evalSource{
		{"lazy", NewEvaluator(r), r.Paths},
		{"degraded", NewDegradedEvaluator(rr), rr.Paths},
		{"compiled", NewCompiledEvaluator(c), r.Paths},
		{"delta", NewCompiledEvaluator(cd), rr.Paths},
	}
}

// TestLoadsDenseModeSwitch pins the Loads kernel's permanent switch to
// bulk clearing on every source: a one-flow matrix stays in sparse
// (touched-list) mode, a uniform all-to-all matrix touches at least a
// quarter of the links and flips the evaluator to dense mode, and the
// next one-flow matrix is still evaluated densely. Every step's loads
// and maximum equal a naive accumulation bit for bit, so neither mode
// leaves stale load behind.
func TestLoadsDenseModeSwitch(t *testing.T) {
	tp := topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3})
	n := tp.NumProcessors()
	faults, err := topology.RandomCableFaultFraction(tp, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	one := traffic.NewMatrix(n)
	one.Add(0, n-1, 1)
	steps := []struct {
		tm    *traffic.Matrix
		dense bool
	}{{one, false}, {traffic.Uniform(n), true}, {one, true}}
	for _, sel := range []core.Selector{core.DModK{}, core.Disjoint{}, core.RandomK{}} {
		for _, src := range evalSources(t, core.NewRouting(tp, sel, 3, 11), faults) {
			for i, st := range steps {
				naive, wantMax := naiveLoads(tp, st.tm, src.paths)
				if wantMax == 0 {
					t.Fatalf("%s %s step %d: demand loads no link", sel.Name(), src.name, i)
				}
				got := src.ev.Loads(st.tm)
				for l := range naive {
					if math.Float64bits(got[l]) != math.Float64bits(naive[l]) {
						t.Fatalf("%s %s step %d: loads[%d] = %v, naive %v", sel.Name(), src.name, i, l, got[l], naive[l])
					}
				}
				if src.ev.dense != st.dense {
					t.Fatalf("%s %s step %d: dense mode %v, want %v", sel.Name(), src.name, i, src.ev.dense, st.dense)
				}
				if got := src.ev.MaxLoad(st.tm); math.Float64bits(got) != math.Float64bits(wantMax) {
					t.Fatalf("%s %s step %d: MaxLoad %v, naive %v", sel.Name(), src.name, i, got, wantMax)
				}
			}
		}
	}
}

// TestEvaluatorSteadyStateAllocs pins the zero-allocation steady state
// of the evaluation hot paths: the per-K evaluator on all four sources
// (the failure sweep runs the degraded and delta-compiled ones) and
// both multi-K sources, including random-K routing (whose selector
// draws inside the caller's path buffer instead of allocating a map or
// permutation per pair).
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	tp := topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3})
	n := tp.NumProcessors()
	tms := make([]*traffic.Matrix, 4)
	for i := range tms {
		tms[i] = traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(3, int64(i))))
	}
	faults, err := topology.RandomCableFaultFraction(tp, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, sel := range []core.Selector{core.Disjoint{}, core.RandomK{}} {
		for _, src := range evalSources(t, core.NewRouting(tp, sel, 3, 1), faults) {
			src.ev.MaxLoad(tms[0]) // warm scratch
			if got := testing.AllocsPerRun(20, func() {
				i++
				src.ev.MaxLoad(tms[i%len(tms)])
			}); got != 0 {
				t.Errorf("%s: %s Evaluator.MaxLoad allocates %.1f/op in steady state", sel.Name(), src.name, got)
			}
		}
		ks := []int{1, 2, 4, tp.MaxPaths()}
		lazyMulti, compMulti := newMultiKPair(t, tp, sel, ks, 1)
		out := make([]float64, len(ks))
		for _, multi := range []*MultiKEvaluator{lazyMulti, compMulti} {
			multi.MaxLoads(tms[0], nil, out)
			if got := testing.AllocsPerRun(20, func() {
				i++
				multi.MaxLoads(tms[i%len(tms)], nil, out)
			}); got != 0 {
				t.Errorf("%s (compiled %v): MultiKEvaluator.MaxLoads allocates %.1f/op in steady state", sel.Name(), multi.c != nil, got)
			}
		}
	}
	// Random-K beyond 256 paths: its membership bitset spans several
	// words, carved from the path buffer like the rest of its scratch.
	wide := topology.MustNew(2, []int{4, 4}, []int{1, 300})
	ks := []int{1, 16, 100, 299}
	lazy, comp := newMultiKPair(t, wide, core.RandomK{}, ks, 1)
	perm := traffic.FromPermutation(traffic.RandomPermutation(wide.NumProcessors(), stats.Stream(3, 0)))
	out := make([]float64, len(ks))
	for _, multi := range []*MultiKEvaluator{lazy, comp} {
		multi.MaxLoads(perm, nil, out)
		if got := testing.AllocsPerRun(20, func() { multi.MaxLoads(perm, nil, out) }); got != 0 {
			t.Errorf("random on %s (compiled %v): MultiKEvaluator.MaxLoads allocates %.1f/op in steady state", wide, multi.c != nil, got)
		}
	}
	ev := NewEvaluator(core.NewRouting(wide, core.RandomK{}, 100, 1))
	ev.MaxLoad(perm)
	if got := testing.AllocsPerRun(20, func() { ev.MaxLoad(perm) }); got != 0 {
		t.Errorf("random on %s: Evaluator.MaxLoad allocates %.1f/op in steady state", wide, got)
	}
}

// mixedAmountMatrix is a hand-built demand over n nodes whose flows
// carry 0.25, 1 and 3 units in turn: a random permutation plus a
// second, shifted flow from every third node (so sources repeat and a
// link's hits mix amounts). Unlike a permutation it exercises the
// kernel's amount weighting.
func mixedAmountMatrix(n int, seed int64) *traffic.Matrix {
	amounts := []float64{0.25, 1, 3}
	tm := traffic.NewMatrix(n)
	for src, dst := range traffic.RandomPermutation(n, stats.Stream(seed, 0)) {
		if src != dst {
			tm.Add(src, dst, amounts[src%3])
		}
	}
	for src := 0; src < n; src += 3 {
		if dst := (src + n/2 + 1) % n; dst != src {
			tm.Add(src, dst, amounts[(src/3)%3])
		}
	}
	return tm
}

// multiKGrids pairs two asymmetric fabrics with non-power-of-two K
// grids. XGFT(3;2,3,2;2,2,3) has w₁ > 1 and X = 2, 4, 12 per level;
// XGFT(3;4,3,2;1,2,3) has X = 1, 2, 6. Each grid crosses every level's
// X and ends in a Theorem-1 column.
var multiKGrids = []struct {
	topo *topology.Topology
	ks   []int
}{
	{topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3}), []int{1, 3, 5, 7, 11, 12}},
	{topology.MustNew(3, []int{4, 3, 2}, []int{1, 2, 3}), []int{1, 3, 5, 7}},
}

// newMultiKPair builds the lazy and the compiled multi-K evaluator of
// one routing.
func newMultiKPair(t *testing.T, tp *topology.Topology, sel core.Selector, ks []int, seed int64) (lazy, comp *MultiKEvaluator) {
	t.Helper()
	r := core.NewRouting(tp, sel, ks[len(ks)-1], seed)
	c, err := core.CompileRouting(r, 1<<30)
	if err != nil {
		t.Fatalf("%s on %s: compile: %v", sel.Name(), tp, err)
	}
	return NewMultiKEvaluator(r, ks), NewCompiledMultiKEvaluator(c, ks)
}

// TestMultiKEvaluatorActiveFreezing freezes columns in a
// non-monotone order of K — a middle one, then the largest walked one,
// then the smallest — on mixed-amount demands scaled by 0.1, whose
// sums round: frozen entries stay untouched and every live column is
// bit-identical to an all-active run, on both sources, because the
// bucket layout does not depend on the active set (merging a frozen
// column's bucket into its neighbour would change the rounding).
func TestMultiKEvaluatorActiveFreezing(t *testing.T) {
	g := multiKGrids[0]
	n := g.topo.NumProcessors()
	lazy, comp := newMultiKPair(t, g.topo, core.RandomK{}, g.ks, 9)
	ref := NewMultiKEvaluator(core.NewRouting(g.topo, core.RandomK{}, g.ks[len(g.ks)-1], 9), g.ks)
	freezeAt := map[int64]int{1: 2, 3: 4, 5: 0}
	active := make([]bool, len(g.ks))
	for j := range active {
		active[j] = true
	}
	want := make([]float64, len(g.ks))
	out := make([]float64, len(g.ks))
	for sample := int64(0); sample < 7; sample++ {
		if j, ok := freezeAt[sample]; ok {
			active[j] = false
		}
		tm := mixedAmountMatrix(n, 40+sample)
		tm.Scale(0.1)
		ref.MaxLoads(tm, nil, want)
		for _, ev := range []*MultiKEvaluator{lazy, comp} {
			for j := range out {
				out[j] = -1
			}
			ev.MaxLoads(tm, active, out)
			for j := range g.ks {
				switch {
				case !active[j] && out[j] != -1:
					t.Fatalf("sample %d: frozen column %d written: %v", sample, j, out[j])
				case active[j] && out[j] != want[j]:
					t.Fatalf("sample %d column %d: active-subset run %v vs all-active %v", sample, j, out[j], want[j])
				}
			}
		}
	}
}

// TestMultiKPooledEvaluatorAcrossSeeds is MultiKExperiment's sharing
// rule: one evaluator walking two seeds' routings alternately (lazy and
// compiled) returns bit for bit what a dedicated evaluator per seed
// returns, so an evaluator carries nothing from one routing to the
// next.
func TestMultiKPooledEvaluatorAcrossSeeds(t *testing.T) {
	g := multiKGrids[0]
	n := g.topo.NumProcessors()
	var lazy, comp [2]*MultiKEvaluator
	for i := range lazy {
		lazy[i], comp[i] = newMultiKPair(t, g.topo, core.RandomK{}, g.ks, int64(100+i))
	}
	shared := newMultiK(g.topo, core.RandomK{}, g.ks)
	want := make([]float64, len(g.ks))
	got := make([]float64, len(g.ks))
	for sample := int64(0); sample < 6; sample++ {
		tm := mixedAmountMatrix(n, sample)
		for i := range lazy {
			for _, ded := range []*MultiKEvaluator{lazy[i], comp[i]} {
				ded.MaxLoads(tm, nil, want)
				shared.r, shared.c = ded.r, ded.c
				shared.MaxLoads(tm, nil, got)
				for j, k := range g.ks {
					if got[j] != want[j] {
						t.Fatalf("sample %d seed %d K=%d compiled=%v: shared %v, dedicated %v", sample, i, k, ded.c != nil, got[j], want[j])
					}
				}
			}
		}
	}
}
