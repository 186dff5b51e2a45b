package flow

import (
	"fmt"
	"math/bits"
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
// paths. Per flow the evaluator therefore adds the amount into a
// per-(link, bucket) histogram — bucket q of level λ holds path
// positions [bounds[q-1], bounds[q]) of that level's distinct
// boundaries, full-set columns being just its last bucket — and per
// sample one finalize pass over the touched links turns each link's
// per-level prefix sums into every column's load, folds the maximum
// and clears the link. Per-K evaluators add amount/b per hit instead;
// the two agree to ulp-level rounding, and exactly whenever the sums
// are integers divided by 1 (single-path columns under permutations).
//
// The walk reads path indices, not link lists, and counts by path
// prefix. A path's level-j links depend only on the top j digits of
// its index (topology.Topology.PathOffsets), so within one bucket the
// paths sharing those digits share one add of amount × count; only the
// top level, where every path is distinct, adds once per path. Counts
// are exact integers, so under permutations (amount 1) and dyadic
// demands every histogram cell holds exactly the value one add per hit
// would have produced.
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

	// hist holds one row of buckets per directed link, grouped by link
	// level j and, within a level, up links before down links. A level-j
	// link carries only pairs whose NCA level is j or above, so its row
	// holds just those levels' buckets: the last nb - plans[j].off of the
	// nb buckets, bucket plans[λ].off + q of level λ sitting at
	// plans[λ].off + q - plans[j].off. The rows a subtree's paths use sit
	// together and no row carries buckets that stay zero for its level.
	// hist is all zero between calls; finalize clears what a call
	// touched.
	hist []float64
	nb   int

	// stamp[r] >= epoch<<stampLevels marks link row r as touched this
	// call, and its low stampLevels bits are the set of NCA levels (bit
	// λ-1) whose buckets the call filled in the row. finalize visits
	// touched rows in order, so it streams through hist, and works on
	// those levels' buckets only: every other bucket of the row is zero.
	stamp []uint64
	epoch uint64

	plans []multiKPlan // indexed by level
	// at[j·h + λ-1] is the bucket holding walked column j's load share
	// at level λ. cols lists this call's active walked columns and mx
	// their maxima.
	at   []int
	cols []int
	mx   []float64

	// cnt[plans[j].cnt + o] counts the current bucket's paths whose
	// level-j links sit at edge offset o (topology PathOffsets), for
	// levels j below the pair's NCA level; hot[plans[j].cnt:] lists the
	// offsets with a non-zero count, in first-hit order. Levels 1..one
	// have WProd 1, so a single offset that every path shares: they are
	// never counted.
	cnt []int32
	hot []int32
	one int

	pathBuf   []int
	allActive []bool
	opt       optScratch
}

// stampLevels is how many low bits of a link stamp hold its NCA-level
// mask: one per possible level.
const stampLevels = topology.MaxHeight

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

// multiKPlan is one level's layout. As an NCA level it lays out the
// pairs' buckets: the distinct effective path counts of the grid's
// walked columns, ascending, and where the level's buckets start in a
// full row of nb. The layout is fixed at construction, so a column's
// load does not depend on which other columns are frozen; nq is how
// many buckets the current call fills (up to the largest active
// column's). As a link level it locates the level's links in hist,
// stamp and cnt.
type multiKPlan struct {
	x      int
	off    int
	bounds []int
	nq     int

	cables int // cables between levels j-1 and j: up rows, then as many down rows
	width  int // row length, nb - off
	row    int // first stamp index (the first up link's row)
	hist   int // first hist index
	cnt    int // first cnt and hot index (levels below the top)
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
// prefix the grid needs is materialized). The walk reads the table's
// path indices (CompiledRouting.PathIndices), the same indices the
// lazy source derives, so the two sources agree bit for bit.
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
		stamp:     make([]uint64, t.NumLinks()),
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
	rows, cells, cnt := 0, 0, 0
	for lev := 1; lev <= h; lev++ {
		p := &e.plans[lev]
		p.cables = t.CablesAtTier(lev - 1)
		p.width = e.nb - p.off
		p.row, p.hist, p.cnt = rows, cells, cnt
		rows += 2 * p.cables
		cells += 2 * p.cables * p.width
		if lev < h {
			cnt += p.x
		}
	}
	for e.one < h && t.WProd(e.one+1) == 1 {
		e.one++
	}
	e.hist = make([]float64, cells)
	e.cnt = make([]int32, cnt)
	e.hot = make([]int32, cnt)
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
	if e.epoch == 1<<(64-stampLevels) { // wrapped: stamps from the old era are ambiguous
		clear(e.stamp)
		e.epoch = 1
	}
	h, last := len(e.plans)-1, e.cols[len(e.cols)-1]
	for lev := 1; lev <= h; lev++ {
		p := &e.plans[lev]
		p.nq = e.at[last*h+lev-1] - p.off + 1
	}
	for _, f := range tm.Flows() {
		k := e.topo.NCALevel(f.Src, f.Dst)
		if e.c != nil {
			countHits(e, k, f.Src, f.Dst, e.c.PathIndices(f.Src, f.Dst), f.Amount)
		} else {
			p := &e.plans[k]
			e.pathBuf = e.r.AppendPathsLimitedScratch(e.ps, e.pathBuf[:0], f.Src, f.Dst, p.bounds[p.nq-1])
			countHits(e, k, f.Src, f.Dst, e.pathBuf, f.Amount)
		}
	}
	e.finalize(out)
}

// countHits adds amount into the histogram bucket of every link hit of
// the first bounds[nq-1] paths of idxs, the pair's path indices at NCA
// level k. Each path adds to its two top-level links directly. Below
// the top, the bucket's paths are counted per edge offset, and each
// distinct offset adds amount × count to its up and down link once,
// when the bucket ends; levels with a single offset (WProd 1) need no
// count, as all of the bucket's paths share their links there.
func countHits[I ~int | ~int32](e *MultiKEvaluator, k, src, dst int, idxs []I, amount float64) {
	// Per level j: the stamp rows and bucket-0 hist cells of the up and
	// down link at edge offset 0, and the row width offset o multiplies.
	var upRow, downRow, upCell, downCell, width, nhot [topology.MaxHeight]int
	var dec [topology.MaxHeight]int32
	e.topo.PathEdgeBases(src, k, upRow[:])
	e.topo.PathEdgeBases(dst, k, downRow[:])
	p := &e.plans[k]
	for j := range k {
		lp := &e.plans[j+1]
		up, down := upRow[j], lp.cables+downRow[j]
		upRow[j], downRow[j] = lp.row+up, lp.row+down
		upCell[j] = lp.hist + up*lp.width + p.off - lp.off
		downCell[j] = lp.hist + down*lp.width + p.off - lp.off
		width[j] = lp.width
	}
	offs := e.topo.PathOffsetTable(k)
	hist, stamp, cnt, hot := e.hist, e.stamp, e.cnt, e.hot
	mark, bit := e.epoch<<stampLevels, uint64(1)<<(k-1)
	add := func(j, o, q int, v float64) {
		c := o*width[j] + q
		bump(stamp, hist, upRow[j]+o, upCell[j]+c, mark, bit, v)
		bump(stamp, hist, downRow[j]+o, downCell[j]+c, mark, bit, v)
	}
	top, one := k-1, min(e.one, k-1)
	prev := 0
	for q, b := range p.bounds[:p.nq] {
		for _, idx := range idxs[prev:b] {
			row := dec[:k]
			if offs != nil {
				row = offs[int(idx)*k : int(idx)*k+k]
			} else {
				e.topo.PathOffsets(k, int(idx), row)
			}
			add(top, int(row[top]), q, amount)
			for j := one; j < top; j++ {
				o, c := int(row[j]), e.plans[j+1].cnt
				if cnt[c+o] == 0 {
					hot[c+nhot[j]] = int32(o)
					nhot[j]++
				}
				cnt[c+o]++
			}
		}
		for j := range one {
			add(j, 0, q, amount*float64(b-prev))
		}
		for j := one; j < top; j++ {
			c := e.plans[j+1].cnt
			for _, o := range hot[c : c+nhot[j]] {
				add(j, int(o), q, amount*float64(cnt[c+int(o)]))
				cnt[c+int(o)] = 0
			}
			nhot[j] = 0
		}
		prev = b
	}
}

// bump adds v to hist[c] and marks row r touched this call (mark is
// the call's epoch<<stampLevels) by the NCA level of bit.
func bump(stamp []uint64, hist []float64, r, c int, mark, bit uint64, v float64) {
	stamp[r] = max(stamp[r], mark) | bit
	hist[c] += v
}

// finalize turns every touched link's filled buckets into per-level
// prefix sums divided by their boundary, sums each active column's
// level terms (in level order) into its load on the link, folds the
// maxima and clears the link. Only the levels in the link's stamp mask
// are visited; the others hold zeros, and skipping a zero term leaves
// every sum bitwise unchanged.
func (e *MultiKEvaluator) finalize(out []float64) {
	h := len(e.plans) - 1
	mx := e.mx[:len(e.cols)]
	clear(mx)
	mark := e.epoch << stampLevels
	for _, lp := range e.plans[1:] {
		for r, st := range e.stamp[lp.row : lp.row+2*lp.cables] {
			if st < mark {
				continue
			}
			mask := st - mark
			row := e.hist[lp.hist+r*lp.width : lp.hist+(r+1)*lp.width]
			for m := mask; m != 0; m &= m - 1 {
				p := &e.plans[bits.TrailingZeros64(m)+1]
				b0 := row[p.off-lp.off:]
				sum := 0.0
				for q, b := range p.bounds[:p.nq] {
					sum += b0[q]
					b0[q] = sum / float64(b)
				}
			}
			for c, j := range e.cols {
				at := e.at[j*h : j*h+h]
				v := 0.0
				for m := mask; m != 0; m &= m - 1 {
					v += row[at[bits.TrailingZeros64(m)]-lp.off]
				}
				mx[c] = max(mx[c], v)
			}
			for m := mask; m != 0; m &= m - 1 {
				p := &e.plans[bits.TrailingZeros64(m)+1]
				clear(row[p.off-lp.off : p.off-lp.off+p.nq])
			}
		}
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
