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
// every K column. Per pair it accumulates link-hit counts path by
// path and, at each K boundary of the grid, folds count·amount/min(K,X)
// into that K's load vector; columns whose boundary reaches a level's
// full path count replay that level's X paths with direct adds (the
// same adds, in the same order, as a per-K evaluator). Touched-link
// lists replace the O(numLinks) clear and the maximum is folded into
// accumulation.
//
// Columns whose effective path count is the full X at EVERY NCA level
// (K >= MaxPaths for limited schemes; always for UMULTI) route exactly
// like UMULTI, and by Theorem 1 MLOAD(UMULTI, TM) == OLOAD(TM) on
// XGFTs. Those columns skip the per-pair walk entirely: one
// subtree-cut optimalLoad pass per call produces their value, turning
// the grid's most expensive column (X paths per pair) into its
// cheapest. The result is bit-identical to OptimalLoad and agrees
// with a per-K evaluator's repeated-add MLOAD to ulp-level rounding.
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

	numLinks int
	backing  []float64   // len(ks)·numLinks load entries
	rows     [][]float64 // rows[j] = backing row of ks[j]

	// Per-sample touched bookkeeping: stamp[l] == epoch marks that some
	// row loaded link l this sample; touched lists those links so the
	// next call clears only them (in every still-active row).
	stamp   []uint32
	epoch   uint32
	touched []int32

	// Per-pair prefix counting scratch.
	counts      []int32
	pairTouched []int32

	plans []multiKPlan // indexed by NCA level, rebuilt per call

	pathBuf     []int
	linkBuf     []topology.LinkID
	fullLinkBuf []topology.LinkID
	allActive   []bool
	opt         optScratch
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

// multiKPlan is the per-NCA-level evaluation plan for one MaxLoads
// call: which active K columns fold at which path-count boundary (all
// boundaries < X, ascending, rows grouped per boundary), which active
// columns use the full X-path set, and how long the derived prefix
// must be.
type multiKPlan struct {
	x      int
	stride int   // links per path segment (2·level)
	allIdx []int // canonical 0..x-1, for the lazy full-set pass
	bPre   int   // longest prefix any fold boundary needs (0: none)
	bounds []foldBound
	full   []int

	boundsStore []foldBound
}

type foldBound struct {
	b    int
	rows []int
}

// NewMultiKEvaluator creates a lazy multi-K evaluator for the routing
// r over the ascending, strictly increasing K grid ks (every K >= 1).
// The routing's own configured K is superseded by the grid: paths are
// derived with explicit per-call limits. The routing's selector must
// be prefix-nested (core.PrefixNested) or this panics.
func NewMultiKEvaluator(r *core.Routing, ks []int) *MultiKEvaluator {
	e := newMultiK(r.Topology(), r.Selector(), ks)
	e.r = r
	e.ps = core.NewPathScratch()
	return e
}

// NewCompiledMultiKEvaluator creates a multi-K evaluator walking the
// shared compiled table c, which must hold a healthy routing compiled
// with a path limit of at least the grid's largest K (so that every
// prefix the grid needs is materialized). The table's path-major
// layout (CompiledRouting.PairPathLinks) makes each fold a contiguous
// scan.
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
	nK := len(ks)
	nL := t.NumLinks()
	e := &MultiKEvaluator{
		topo:     t,
		ks:       append([]int(nil), ks...),
		class:    classify(sel),
		numLinks: nL,
		backing:  make([]float64, nK*nL),
		rows:     make([][]float64, nK),
		stamp:    make([]uint32, nL),
		counts:   make([]int32, nL),
		plans:    make([]multiKPlan, t.H()+1),
		allActive: func() []bool {
			a := make([]bool, nK)
			for i := range a {
				a[i] = true
			}
			return a
		}(),
	}
	for j := range e.rows {
		e.rows[j] = e.backing[j*nL : (j+1)*nL]
	}
	e.oload = make([]bool, nK)
	for j, k := range ks {
		e.oload[j] = e.effCount(k, t.MaxPaths()) == t.MaxPaths()
	}
	for lev := 1; lev <= t.H(); lev++ {
		p := &e.plans[lev]
		p.x = t.WProd(lev)
		p.stride = 2 * lev
		p.allIdx = make([]int, p.x)
		for i := range p.allIdx {
			p.allIdx[i] = i
		}
		p.boundsStore = make([]foldBound, nK)
	}
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
	if k > x {
		return x
	}
	return k
}

// buildPlans groups the active K columns of every NCA level into fold
// boundaries (< X) and full-set columns (= X) for this call.
func (e *MultiKEvaluator) buildPlans(active []bool) {
	for lev := 1; lev < len(e.plans); lev++ {
		p := &e.plans[lev]
		p.bounds = p.boundsStore[:0]
		p.full = p.full[:0]
		p.bPre = 0
		for j, k := range e.ks {
			if !active[j] || e.oload[j] {
				continue
			}
			b := e.effCount(k, p.x)
			if b >= p.x {
				p.full = append(p.full, j)
				continue
			}
			if n := len(p.bounds); n > 0 && p.bounds[n-1].b == b {
				p.bounds[n-1].rows = append(p.bounds[n-1].rows, j)
			} else {
				p.bounds = p.boundsStore[:n+1]
				fb := &p.bounds[n]
				fb.b = b
				fb.rows = append(fb.rows[:0], j)
			}
			p.bPre = b // ks ascending ⇒ boundaries non-decreasing
		}
	}
}

// MaxLoads computes MLOAD at every active K of the grid under tm,
// writing out[j] for each j with active[j] true and leaving frozen
// entries untouched (nil active means all). The active set must be
// non-increasing across calls on one evaluator — a column, once
// frozen, must stay frozen (this matches stats.SampleAdaptiveVec) —
// because frozen rows keep their stale loads and are excluded from the
// touched-link clearing.
func (e *MultiKEvaluator) MaxLoads(tm *traffic.Matrix, active []bool, out []float64) {
	if tm.N != e.topo.NumProcessors() {
		panic(fmt.Sprintf("flow: traffic matrix over %d nodes, topology has %d", tm.N, e.topo.NumProcessors()))
	}
	if active == nil {
		active = e.allActive
	}
	nAct, nWalk, nOpt := 0, 0, 0
	for j, a := range active {
		if !a {
			continue
		}
		nAct++
		if e.oload[j] {
			nOpt++
		} else {
			nWalk++
		}
	}
	met.multikWalks.Inc()
	met.multikColumns.Add(int64(nAct))
	// Theorem-1 columns: one subtree-cut pass serves them all; their
	// load rows stay untouched (always zero).
	if nOpt > 0 {
		ol := e.opt.optimalLoad(e.topo, tm)
		for j := range e.ks {
			if active[j] && e.oload[j] {
				out[j] = ol
			}
		}
	}
	if nWalk == 0 {
		return
	}
	met.pairsEvaluated.Add(int64(len(tm.Flows())))
	// Clear only what the previous sample loaded, in the rows that are
	// still live, then stamp a fresh epoch.
	for j := range e.ks {
		if !active[j] || e.oload[j] {
			continue
		}
		row := e.rows[j]
		for _, l := range e.touched {
			row[l] = 0
		}
		out[j] = 0
	}
	e.touched = e.touched[:0]
	e.epoch++
	if e.epoch == 0 { // wrapped: stamps from the old era are ambiguous
		for i := range e.stamp {
			e.stamp[i] = 0
		}
		e.epoch = 1
	}
	e.buildPlans(active)
	for _, f := range tm.Flows() {
		e.evalPair(f.Src, f.Dst, f.Amount, out)
	}
}

func (e *MultiKEvaluator) evalPair(src, dst int, amount float64, out []float64) {
	p := &e.plans[e.topo.NCALevel(src, dst)]
	if len(p.bounds) > 0 {
		if e.c != nil {
			links, _, _ := e.c.PairPathLinks(src, dst)
			walkBounds(e, p, links, amount, out)
		} else {
			e.pathBuf = e.r.AppendPathsLimitedScratch(e.ps, e.pathBuf[:0], src, dst, p.bPre)
			e.linkBuf = core.AppendPathSetLinks(e.topo, src, dst, e.pathBuf, e.linkBuf[:0])
			walkBounds(e, p, e.linkBuf, amount, out)
		}
	}
	if len(p.full) > 0 {
		share := amount / float64(p.x)
		if e.c != nil {
			links, _, _ := e.c.PairPathLinks(src, dst)
			for _, row := range p.full {
				addFull(e, row, links, share, out)
			}
		} else {
			e.fullLinkBuf = core.AppendPathSetLinks(e.topo, src, dst, p.allIdx, e.fullLinkBuf[:0])
			for _, row := range p.full {
				addFull(e, row, e.fullLinkBuf, share, out)
			}
		}
	}
}

// walkBounds advances the pair's per-link hit counts boundary by
// boundary and folds count·amount/b into every row grouped at each
// boundary b. links must cover at least p.bPre path segments of
// p.stride links each.
func walkBounds[L ~int | ~int32](e *MultiKEvaluator, p *multiKPlan, links []L, amount float64, out []float64) {
	prev := 0
	for bi := range p.bounds {
		fb := &p.bounds[bi]
		for _, l := range links[prev*p.stride : fb.b*p.stride] {
			if e.counts[l] == 0 {
				e.pairTouched = append(e.pairTouched, int32(l))
			}
			e.counts[l]++
		}
		prev = fb.b
		share := amount / float64(fb.b)
		for _, row := range fb.rows {
			loads := e.rows[row]
			mx := out[row]
			for _, l := range e.pairTouched {
				if e.stamp[l] != e.epoch {
					e.stamp[l] = e.epoch
					e.touched = append(e.touched, l)
				}
				v := loads[l] + float64(e.counts[l])*share
				loads[l] = v
				if v > mx {
					mx = v
				}
			}
			out[row] = mx
		}
	}
	for _, l := range e.pairTouched {
		e.counts[l] = 0
	}
	e.pairTouched = e.pairTouched[:0]
}

// addFull replays the pair's full path set into one row with direct
// per-link adds — the same adds, in the same order, as a per-K
// evaluator at any K >= X performs, so full-set columns stay
// bit-identical to per-cell evaluation.
func addFull[L ~int | ~int32](e *MultiKEvaluator, row int, links []L, share float64, out []float64) {
	loads := e.rows[row]
	mx := out[row]
	for _, l := range links {
		if e.stamp[l] != e.epoch {
			e.stamp[l] = e.epoch
			e.touched = append(e.touched, int32(l))
		}
		v := loads[l] + share
		loads[l] = v
		if v > mx {
			mx = v
		}
	}
	out[row] = mx
}

// Loads returns the load vector of the given K column as computed by
// the most recent MaxLoads call (valid until the next call; the slice
// is owned by the evaluator). Theorem-1 columns are never walked, so
// their rows stay all-zero. Intended for differential tests.
func (e *MultiKEvaluator) Loads(j int) []float64 { return e.rows[j] }

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
// flow.Experiment once per K up to ulp-level rounding: count-folded
// prefix columns add count·share instead of count repeated shares,
// and columns with K >= X at every level short-circuit to OLOAD
// (Theorem 1) instead of replaying X paths per pair.
type MultiKExperiment struct {
	Topo *topology.Topology
	Sel  core.Selector
	// Ks is the ascending, strictly increasing K grid (every K >= 1).
	Ks []int
	// Seeds, PermSeed, Sampling, Compile, CompileBudget behave exactly
	// as in Experiment; the compile policy is applied once at the
	// grid's largest K.
	Seeds         []int64
	PermSeed      int64
	Sampling      stats.AdaptiveConfig
	Compile       CompileMode
	CompileBudget int64
}

// Run executes the experiment, returning one accumulator per K in grid
// order.
func (x MultiKExperiment) Run() stats.AdaptiveVecResult {
	seeds := x.Seeds
	if len(seeds) == 0 {
		if core.ClosedForm(x.Sel) {
			seeds = []int64{0}
		} else {
			seeds = []int64{101, 202, 303, 404, 505}
		}
	}
	kmax := x.Ks[len(x.Ks)-1]
	pools := make([]*sync.Pool, len(seeds))
	for i, s := range seeds {
		r := core.NewRouting(x.Topo, x.Sel, kmax, s)
		c := Experiment{Topo: x.Topo, Sel: x.Sel, K: kmax, Sampling: x.Sampling,
			Compile: x.Compile, CompileBudget: x.CompileBudget}.compiled(r)
		pools[i] = &sync.Pool{New: func() any {
			if c != nil {
				return NewCompiledMultiKEvaluator(c, x.Ks)
			}
			return NewMultiKEvaluator(r, x.Ks)
		}}
	}
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
		for _, p := range pools {
			ev := p.Get().(*MultiKEvaluator)
			ev.MaxLoads(tm, active, tmp)
			p.Put(ev)
			for j := range out {
				if active[j] {
					out[j] += tmp[j]
				}
			}
		}
		tmpPool.Put(tp)
		for j := range out {
			if active[j] {
				out[j] /= float64(len(pools))
			}
		}
	}
	return stats.SampleAdaptiveVec(x.Sampling, nK, sample)
}
