package flow

import (
	"fmt"
	"sync"

	"xgftsim/internal/core"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// MultiKEvaluator computes, in one walk of a traffic matrix, the
// maximum link load of the same scheme at every K of an ascending
// grid. It exploits the selectors' prefix-nesting guarantee
// (core.PrefixNested): a pair's path set at limit K is a prefix of its
// set at K+1, so one derivation of the longest needed prefix serves
// every K column.
//
// The walk counts, then divides. A column's divisor b = min(K, X_λ)
// depends only on the pair's NCA level λ, so the load column j puts on
// link l is Σ_λ H_λ(l, b_{j,λ}) / b_{j,λ}, where H_λ(l, b) sums the
// amounts of level-λ pairs over their hits on l among their first b
// paths. Per flow the evaluator therefore adds the amount once per
// path hit into a per-(link, bucket) histogram — bucket q of level λ
// holds path positions [bounds[q-1], bounds[q]) of that level's
// distinct boundaries, full-set columns being just its last bucket —
// and per sample one finalize pass over the touched links turns each
// link's per-level prefix sums into every column's load, folds the
// maximum and clears the link. Per-K evaluators add amount/b per hit
// instead; the two agree to ulp-level rounding, and exactly whenever
// the sums are integers divided by 1 (single-path columns under
// permutations).
//
// Columns whose effective path count is the full X at EVERY NCA level
// (K >= MaxPaths for limited schemes; always for UMULTI) route exactly
// like UMULTI, and by Theorem 1 MLOAD(UMULTI, TM) == OLOAD(TM) on
// XGFTs. Those columns skip the per-pair walk entirely: one
// subtree-cut optimalLoad pass per call produces their value, turning
// the grid's most expensive column (X paths per pair) into its
// cheapest. The result is bit-identical to OptimalLoad.
//
// The evaluator reuses all scratch across calls and is not safe for
// concurrent use; create one per goroutine (see MultiKExperiment).
type MultiKEvaluator struct {
	topo *topology.Topology
	ks   []int
	c    *core.CompiledRouting // compiled table at Kmax, or nil
	r    *core.Routing         // lazy source when c == nil
	ps   *core.PathScratch

	class selClass
	// oload[j]: column j's effective count is X at every level, so its
	// value is OLOAD (Theorem 1) — computed per call, never walked.
	oload []bool

	// hist holds nb buckets per link: hist[l·nb + plans[λ].off + q] is
	// link l's level-λ bucket q. It is all zero between calls; finalize
	// clears what a call touched.
	hist []float64
	nb   int

	// stamp[l] == epoch marks link l as touched this call; finalize
	// visits those links in ID order, so it streams through hist.
	stamp []uint32
	epoch uint32

	plans []multiKPlan // indexed by NCA level
	// at[j·h + λ-1] is the bucket holding walked column j's load share
	// at level λ. cols lists this call's active walked columns and mx
	// their maxima.
	at   []int
	cols []int
	mx   []float64

	pathBuf   []int
	linkBuf   []topology.LinkID
	allActive []bool
	opt       optScratch
}

// selClass tells how a scheme's effective per-pair path count depends
// on K: single-path schemes always use 1, UMULTI always all X, limited
// multipath schemes min(K, X).
type selClass int

const (
	classLimited selClass = iota
	classSingle
	classUnlimited
)

func classify(sel core.Selector) selClass {
	if _, ok := sel.(core.UMulti); ok {
		return classUnlimited
	}
	if !sel.MultiPath() {
		return classSingle
	}
	return classLimited
}

// multiKPlan is one NCA level's bucket layout: the distinct effective
// path counts of the grid's walked columns, ascending, and where the
// level's buckets start in a link's histogram row. The layout is fixed
// at construction, so a column's load does not depend on which other
// columns are frozen; nq is how many buckets the current call fills
// (up to the largest active column's).
type multiKPlan struct {
	x      int
	stride int // links per path segment (2·level)
	off    int
	bounds []int
	nq     int
}

// NewMultiKEvaluator creates a lazy multi-K evaluator for the routing
// r over the ascending, strictly increasing K grid ks (every K >= 1).
// The routing's own configured K is superseded by the grid: paths are
// derived with explicit per-call limits. The routing's selector must
// be prefix-nested (core.PrefixNested) or this panics.
func NewMultiKEvaluator(r *core.Routing, ks []int) *MultiKEvaluator {
	e := newMultiK(r.Topology(), r.Selector(), ks)
	e.r = r
	return e
}

// NewCompiledMultiKEvaluator creates a multi-K evaluator walking the
// shared compiled table c, which must hold a healthy routing compiled
// with a path limit of at least the grid's largest K (so that every
// prefix the grid needs is materialized). The table's path-major
// layout (CompiledRouting.PairPathLinks) makes each bucket a
// contiguous scan.
func NewCompiledMultiKEvaluator(c *core.CompiledRouting, ks []int) *MultiKEvaluator {
	if c.Repaired() != nil {
		panic("flow: MultiKEvaluator requires a healthy compiled table (repaired path sets are not K-nested)")
	}
	r := c.Routing()
	e := newMultiK(c.Topology(), r.Selector(), ks)
	if rk := r.K(); rk > 0 && rk < ks[len(ks)-1] && classify(r.Selector()) == classLimited {
		panic(fmt.Sprintf("flow: compiled table built at K=%d cannot serve grid up to K=%d", rk, ks[len(ks)-1]))
	}
	e.c = c
	return e
}

func newMultiK(t *topology.Topology, sel core.Selector, ks []int) *MultiKEvaluator {
	if len(ks) == 0 {
		panic("flow: MultiKEvaluator requires a non-empty K grid")
	}
	for i, k := range ks {
		if k < 1 || (i > 0 && k <= ks[i-1]) {
			panic(fmt.Sprintf("flow: MultiKEvaluator K grid must be ascending and >= 1, got %v", ks))
		}
	}
	if !core.PrefixNested(sel) {
		panic(fmt.Sprintf("flow: selector %s does not guarantee prefix nesting; MultiKEvaluator requires it", sel.Name()))
	}
	nK, h := len(ks), t.H()
	e := &MultiKEvaluator{
		topo:      t,
		ks:        append([]int(nil), ks...),
		class:     classify(sel),
		ps:        core.NewPathScratch(),
		stamp:     make([]uint32, t.NumLinks()),
		plans:     make([]multiKPlan, h+1),
		oload:     make([]bool, nK),
		allActive: make([]bool, nK),
		at:        make([]int, nK*h),
		mx:        make([]float64, nK),
	}
	for j, k := range ks {
		e.oload[j] = e.effCount(k, t.MaxPaths()) == t.MaxPaths()
		e.allActive[j] = true
	}
	for lev := 1; lev <= h; lev++ {
		p := &e.plans[lev]
		p.x = t.WProd(lev)
		p.stride = 2 * lev
		p.off = e.nb
		for j, k := range ks {
			if e.oload[j] {
				continue
			}
			// ks ascending ⇒ effective counts non-decreasing.
			if b := e.effCount(k, p.x); len(p.bounds) == 0 || p.bounds[len(p.bounds)-1] != b {
				p.bounds = append(p.bounds, b)
			}
			e.at[j*h+lev-1] = p.off + len(p.bounds) - 1
		}
		e.nb += len(p.bounds)
	}
	e.hist = make([]float64, t.NumLinks()*e.nb)
	return e
}

// Ks returns the evaluator's K grid.
func (e *MultiKEvaluator) Ks() []int { return e.ks }

// effCount is the scheme's effective path count at limit k for a pair
// with x shortest paths.
func (e *MultiKEvaluator) effCount(k, x int) int {
	switch e.class {
	case classSingle:
		return 1
	case classUnlimited:
		return x
	}
	return min(k, x)
}

// MaxLoads computes MLOAD at every active K of the grid under tm,
// writing out[j] for each j with active[j] true and leaving frozen
// entries untouched (nil active means all). An active column's value
// is bitwise independent of which other columns are active, so the
// active set may change freely between calls.
func (e *MultiKEvaluator) MaxLoads(tm *traffic.Matrix, active []bool, out []float64) {
	if tm.N != e.topo.NumProcessors() {
		panic(fmt.Sprintf("flow: traffic matrix over %d nodes, topology has %d", tm.N, e.topo.NumProcessors()))
	}
	if active == nil {
		active = e.allActive
	}
	nAct := 0
	e.cols = e.cols[:0]
	for j, a := range active {
		if a {
			nAct++
			if !e.oload[j] {
				e.cols = append(e.cols, j)
			}
		}
	}
	met.multikWalks.Inc()
	met.multikColumns.Add(int64(nAct))
	// Theorem-1 columns: one subtree-cut pass serves them all.
	if len(e.cols) < nAct {
		ol := e.opt.optimalLoad(e.topo, tm)
		for j := range e.ks {
			if active[j] && e.oload[j] {
				out[j] = ol
			}
		}
	}
	if len(e.cols) == 0 {
		return
	}
	met.pairsEvaluated.Add(int64(len(tm.Flows())))
	e.epoch++
	if e.epoch == 0 { // wrapped: stamps from the old era are ambiguous
		clear(e.stamp)
		e.epoch = 1
	}
	h, last := len(e.plans)-1, e.cols[len(e.cols)-1]
	for lev := 1; lev <= h; lev++ {
		p := &e.plans[lev]
		p.nq = e.at[last*h+lev-1] - p.off + 1
	}
	for _, f := range tm.Flows() {
		p := &e.plans[e.topo.NCALevel(f.Src, f.Dst)]
		if e.c != nil {
			links, _, _ := e.c.PairPathLinks(f.Src, f.Dst)
			countHits(e, p, links, f.Amount)
		} else {
			e.pathBuf = e.r.AppendPathsLimitedScratch(e.ps, e.pathBuf[:0], f.Src, f.Dst, p.bounds[p.nq-1])
			e.linkBuf = core.AppendPathSetLinks(e.topo, f.Src, f.Dst, e.pathBuf, e.linkBuf[:0])
			countHits(e, p, e.linkBuf, f.Amount)
		}
	}
	e.finalize(out)
}

// countHits adds amount into the histogram bucket of every link hit of
// the pair's first bounds[nq-1] paths. links must cover at least that
// many path segments of p.stride links each.
func countHits[L ~int | ~int32](e *MultiKEvaluator, p *multiKPlan, links []L, amount float64) {
	hist, stamp, epoch, nb := e.hist, e.stamp, e.epoch, e.nb
	prev := 0
	for q, b := range p.bounds[:p.nq] {
		at := p.off + q
		for _, l := range links[prev*p.stride : b*p.stride] {
			stamp[l] = epoch
			hist[int(l)*nb+at] += amount
		}
		prev = b
	}
}

// finalize turns every touched link's filled buckets into per-level
// prefix sums divided by their boundary, sums each active column's
// level terms (in level order) into its load on the link, folds the
// maxima and clears the link.
func (e *MultiKEvaluator) finalize(out []float64) {
	h := len(e.plans) - 1
	mx := e.mx[:len(e.cols)]
	clear(mx)
	for l, st := range e.stamp {
		if st != e.epoch {
			continue
		}
		row := e.hist[l*e.nb : (l+1)*e.nb]
		for _, p := range e.plans[1:] {
			sum := 0.0
			for q, b := range p.bounds[:p.nq] {
				sum += row[p.off+q]
				row[p.off+q] = sum / float64(b)
			}
		}
		for c, j := range e.cols {
			v := 0.0
			for _, at := range e.at[j*h : j*h+h] {
				v += row[at]
			}
			mx[c] = max(mx[c], v)
		}
		clear(row)
	}
	for c, j := range e.cols {
		out[j] = mx[c]
	}
}

// OptimalLoad computes OLOAD(TM) reusing evaluator-resident scratch —
// OLOAD is routing-independent, so one call serves every K column of a
// sample.
func (e *MultiKEvaluator) OptimalLoad(tm *traffic.Matrix) float64 {
	return e.opt.optimalLoad(e.topo, tm)
}

// MultiKExperiment is the paper's permutation study for a whole
// (topology, scheme) column of a K grid at once: one permutation
// stream, one compile and one evaluator walk serve every K, with the
// vector adaptive sampler freezing each K's accumulator exactly where
// an independent per-K run would have stopped. Per-K means, sample
// counts and half-widths are therefore identical to running
// flow.Experiment once per K up to ulp-level rounding: the walk counts
// hits per K bucket and divides once per sample instead of adding a
// share per hit, and columns with K >= X at every level short-circuit
// to OLOAD (Theorem 1) instead of replaying X paths per pair.
type MultiKExperiment struct {
	Topo *topology.Topology
	Sel  core.Selector
	// Ks is the ascending, strictly increasing K grid (every K >= 1).
	Ks []int
	// Seeds, PermSeed, Sampling and CompileBudget behave exactly as in
	// Experiment; the compile policy is applied once at the grid's
	// largest K.
	Seeds         []int64
	PermSeed      int64
	Sampling      stats.AdaptiveConfig
	CompileBudget int64
}

// Run executes the experiment, returning one accumulator per K in grid
// order.
func (x MultiKExperiment) Run() stats.AdaptiveVecResult {
	seeds := selectorSeeds(x.Sel, x.Seeds)
	kmax := x.Ks[len(x.Ks)-1]
	type source struct {
		r *core.Routing
		c *core.CompiledRouting
	}
	srcs := make([]source, len(seeds))
	for i, s := range seeds {
		r := core.NewRouting(x.Topo, x.Sel, kmax, s)
		srcs[i] = source{r, compileTable(r, x.Sampling, x.CompileBudget)}
	}
	// One pool for the cell, not one per seed: an evaluator's scratch
	// holds no routing state between calls, so each pooled evaluator
	// walks every seed's routing in turn and live scratch scales with
	// concurrent walks only.
	pool := sync.Pool{New: func() any { return newMultiK(x.Topo, x.Sel, x.Ks) }}
	n := x.Topo.NumProcessors()
	nK := len(x.Ks)
	tmpPool := sync.Pool{New: func() any { s := make([]float64, nK); return &s }}
	sample := func(i int, out []float64, active []bool) {
		rng := stats.Stream(x.PermSeed, int64(i))
		tm := traffic.FromPermutation(traffic.RandomPermutation(n, rng))
		for j := range out {
			if active[j] {
				out[j] = 0
			}
		}
		tp := tmpPool.Get().(*[]float64)
		tmp := *tp
		ev := pool.Get().(*MultiKEvaluator)
		for _, s := range srcs {
			ev.r, ev.c = s.r, s.c
			ev.MaxLoads(tm, active, tmp)
			for j := range out {
				if active[j] {
					out[j] += tmp[j]
				}
			}
		}
		pool.Put(ev)
		tmpPool.Put(tp)
		for j := range out {
			if active[j] {
				out[j] /= float64(len(srcs))
			}
		}
	}
	return stats.SampleAdaptiveVec(x.Sampling, nK, sample)
}
