package flow

import (
	"fmt"
	"sort"

	"xgftsim/internal/core"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// BlockEvaluator evaluates traffic matrices against a block-compiled
// routing by walking them in segment order: flows are visited sorted
// by source, each needed segment is fetched once (compiled, mapped
// from the cache, or popped from the resident pool), used for every
// matrix of the batch and every K column of the grid, then released.
// Peak table memory is one segment, not N² rows — the evaluator for
// the regime where core.CompileRouting cannot fit its budget.
//
// When the routing's selector is closed-form (core.ClosedForm) no
// segment is fetched at all: the same walk — same spans, same flow
// order, same adds — takes each flow's row from a core.RowDeriver
// instead, so nothing is compiled, pooled or cached and the cost of a
// walk scales with the flows evaluated, not with N² table rows. Only
// generic selectors (random-K, custom) still stream tables.
//
// Per flow and per K column it performs exactly the per-K lazy
// Evaluator's adds — share = amount/min(K, numPaths) over the pair's
// first min(K, numPaths) path-link segments, in matrix order for
// source-sorted matrices (traffic.FromPermutation emits those) — so
// the resulting loads and maxima are bit-identical to lazy
// evaluation. That per-K directness is deliberate: MultiKEvaluator's
// count-folding is faster per walk but associates the additions
// differently, and block mode's contract is exact interchangeability
// with the evaluator it replaces out-of-budget.
//
// Not safe for concurrent use; create one per goroutine. Shards of a
// sweep each hold their own evaluator over a shared
// BlockCompiledRouting and accumulate disjoint segment ranges (see
// AccumulateSegments), merged by the caller.
type BlockEvaluator struct {
	b     *core.BlockCompiledRouting
	der   *core.RowDeriver // non-nil: table-free, rows derived on demand
	topo  *topology.Topology
	class selClass
	ks    []int

	numLinks int
	batch    int         // matrices covered by the current rows
	rows     [][]float64 // batch·len(ks) load rows
	touched  [][]int32   // per-row touched-link lists
	orders   [][]int     // per-matrix flow order by source (nil: matrix order)
	cursors  []int
	walked   int64
	derived  int64
}

// rowSource is where a walk reads a flow's CSR row from: a fetched
// core.RoutingSegment or the evaluator's core.RowDeriver.
type rowSource interface {
	PairPathLinks(src, dst int) (links []int32, numPaths, stride int)
}

// NewBlockEvaluator creates a block evaluator over the ascending,
// strictly increasing K grid ks (every K >= 1; a single-K evaluation
// is a grid of length one). The table's routing must be prefix-nested
// and, for limited schemes, compiled with a path limit of at least the
// grid's largest K — the same contract as NewCompiledMultiKEvaluator.
func NewBlockEvaluator(b *core.BlockCompiledRouting, ks []int) *BlockEvaluator {
	if len(ks) == 0 {
		panic("flow: BlockEvaluator requires a non-empty K grid")
	}
	for i, k := range ks {
		if k < 1 || (i > 0 && k <= ks[i-1]) {
			panic(fmt.Sprintf("flow: BlockEvaluator K grid must be ascending and >= 1, got %v", ks))
		}
	}
	r := b.Routing()
	sel := r.Selector()
	if !core.PrefixNested(sel) {
		panic(fmt.Sprintf("flow: selector %s does not guarantee prefix nesting; BlockEvaluator requires it", sel.Name()))
	}
	if rk := r.K(); rk > 0 && rk < ks[len(ks)-1] && classify(sel) == classLimited {
		panic(fmt.Sprintf("flow: block table built at K=%d cannot serve grid up to K=%d", rk, ks[len(ks)-1]))
	}
	e := &BlockEvaluator{
		b:        b,
		topo:     b.Topology(),
		class:    classify(sel),
		ks:       append([]int(nil), ks...),
		numLinks: b.Topology().NumLinks(),
	}
	if core.ClosedForm(sel) {
		e.der = core.NewRowDeriver(r)
	}
	return e
}

// Ks returns the evaluator's K grid.
func (e *BlockEvaluator) Ks() []int { return e.ks }

// Table returns the block-compiled routing the evaluator walks.
func (e *BlockEvaluator) Table() *core.BlockCompiledRouting { return e.b }

// MaxLoadsBatch computes MLOAD at every K of the grid for every matrix
// of the batch in one segment-ordered walk, writing out[s][j] for
// matrix s and grid column j. Each needed segment is fetched exactly
// once per call regardless of batch and grid size; segments no matrix
// touches are never fetched (and so never compiled). Closed-form
// routings fetch none.
func (e *BlockEvaluator) MaxLoadsBatch(tms []*traffic.Matrix, out [][]float64) error {
	if err := e.AccumulateSegments(tms, 0, e.b.NumSegments()); err != nil {
		return err
	}
	e.FinishMax(out)
	return nil
}

// AccumulateSegments walks only segments [g0, g1) of the batch's
// flows, accumulating into the evaluator's own load rows; flows routed
// by other segments are left to other shards. Call FinishMax (single
// shard) or merge the rows across shards (Row/RowTouched) afterwards.
func (e *BlockEvaluator) AccumulateSegments(tms []*traffic.Matrix, g0, g1 int) error {
	for _, tm := range tms {
		if tm.N != e.topo.NumProcessors() {
			panic(fmt.Sprintf("flow: traffic matrix over %d nodes, topology has %d", tm.N, e.topo.NumProcessors()))
		}
	}
	if g0 < 0 || g1 > e.b.NumSegments() || g0 > g1 {
		panic(fmt.Sprintf("flow: segment range [%d,%d) out of [0,%d)", g0, g1, e.b.NumSegments()))
	}
	met.blockWalks.Inc()
	met.pairsEvaluated.Add(countFlows(tms))
	e.reset(tms, g0)
	for g := g0; g < g1; g++ {
		if e.allDone(tms) {
			break
		}
		_, hi := e.b.SegmentSpan(g)
		if !e.anyFlowIn(tms, hi) {
			continue
		}
		if e.der != nil {
			for s, tm := range tms {
				e.derived += e.evalSpan(s, tm, e.der, hi)
			}
			continue
		}
		seg, err := e.b.Segment(g)
		if err != nil {
			return err
		}
		e.walked++
		for s, tm := range tms {
			e.evalSpan(s, tm, seg, hi)
		}
		e.b.Release(seg)
	}
	met.blockSegments.Add(e.walked)
	met.blockRowsDerived.Add(e.derived)
	e.walked, e.derived = 0, 0
	return nil
}

// FinishMax writes out[s][j] = max over links of the accumulated row
// (s, j). Loads only grow during accumulation, so the final scan over
// the touched links equals the lazy evaluator's inline running max
// bit-for-bit.
func (e *BlockEvaluator) FinishMax(out [][]float64) {
	nK := len(e.ks)
	for s := 0; s < e.batch; s++ {
		for j := 0; j < nK; j++ {
			ri := s*nK + j
			row := e.rows[ri]
			mx := 0.0
			for _, l := range e.touched[ri] {
				if v := row[l]; v > mx {
					mx = v
				}
			}
			out[s][j] = mx
		}
	}
}

// Row returns the accumulated load row of (matrix s, grid column j);
// valid until the next AccumulateSegments call. Only entries listed by
// RowTouched are meaningful (the rest are stale zeros).
func (e *BlockEvaluator) Row(s, j int) []float64 { return e.rows[s*len(e.ks)+j] }

// RowTouched lists the links Row(s, j) loaded, for sparse merging
// across shards.
func (e *BlockEvaluator) RowTouched(s, j int) []int32 { return e.touched[s*len(e.ks)+j] }

// reset sizes and clears the batch rows (touched-list clearing — dense
// mega-fabric link vectors make a full zeroing per call the dominant
// cost for sparse batches) and positions each matrix's cursor at its
// first flow inside segment g0's span.
func (e *BlockEvaluator) reset(tms []*traffic.Matrix, g0 int) {
	need := len(tms) * len(e.ks)
	for i := 0; i < len(e.rows) && i < need; i++ {
		row := e.rows[i]
		for _, l := range e.touched[i] {
			row[l] = 0
		}
		e.touched[i] = e.touched[i][:0]
	}
	for len(e.rows) < need {
		e.rows = append(e.rows, make([]float64, e.numLinks))
		e.touched = append(e.touched, nil)
	}
	e.batch = len(tms)

	if cap(e.orders) < len(tms) {
		e.orders = make([][]int, len(tms))
		e.cursors = make([]int, len(tms))
	}
	e.orders = e.orders[:len(tms)]
	e.cursors = e.cursors[:len(tms)]
	lo, _ := e.b.SegmentSpan(g0)
	for s, tm := range tms {
		e.orders[s] = flowOrder(tm, e.orders[s])
		e.cursors[s] = lowerBound(tm.Flows(), e.orders[s], lo)
	}
}

// flowOrder returns the matrix's flow indices sorted (stably) by
// source, or nil when the flows are already source-sorted — the
// permutation generators emit them that way, and the nil fast path
// also guarantees the walk visits flows in matrix order, the property
// the bit-identity contract leans on.
func flowOrder(tm *traffic.Matrix, buf []int) []int {
	flows := tm.Flows()
	sorted := true
	for i := 1; i < len(flows); i++ {
		if flows[i].Src < flows[i-1].Src {
			sorted = false
			break
		}
	}
	if sorted {
		return nil
	}
	if cap(buf) < len(flows) {
		buf = make([]int, len(flows))
	}
	buf = buf[:len(flows)]
	for i := range buf {
		buf[i] = i
	}
	sort.SliceStable(buf, func(a, c int) bool { return flows[buf[a]].Src < flows[buf[c]].Src })
	return buf
}

// lowerBound finds the first position (in walk order) whose flow
// source is >= lo.
func lowerBound(flows []traffic.Flow, order []int, lo int) int {
	srcAt := func(i int) int {
		if order != nil {
			return flows[order[i]].Src
		}
		return flows[i].Src
	}
	return sort.Search(len(flows), func(i int) bool { return srcAt(i) >= lo })
}

// allDone reports whether every matrix's cursor is exhausted, ending
// the segment walk early instead of skip-checking the remaining tail
// (a sweep's last populated segment can be thousands of segments
// before g1 when a shard's flows are front-loaded).
func (e *BlockEvaluator) allDone(tms []*traffic.Matrix) bool {
	for s, tm := range tms {
		if e.cursors[s] < len(tm.Flows()) {
			return false
		}
	}
	return true
}

// anyFlowIn reports whether any matrix's cursor points at a flow below
// hi — i.e. whether the next segment is needed at all. Cursors only
// ever advance, so skipped segments cost one comparison per matrix.
func (e *BlockEvaluator) anyFlowIn(tms []*traffic.Matrix, hi int) bool {
	for s, tm := range tms {
		flows := tm.Flows()
		c := e.cursors[s]
		if c >= len(flows) {
			continue
		}
		src := flows[c].Src
		if e.orders[s] != nil {
			src = flows[e.orders[s][c]].Src
		}
		if src < hi {
			return true
		}
	}
	return false
}

// evalSpan advances matrix s through every flow with source below hi
// (the cursor already sits at the span's first flow), adding each
// flow's per-K shares from the row source's rows; it returns the
// number of rows read.
func (e *BlockEvaluator) evalSpan(s int, tm *traffic.Matrix, rows rowSource, hi int) int64 {
	flows := tm.Flows()
	order := e.orders[s]
	c := e.cursors[s]
	c0 := c
	nK := len(e.ks)
	for c < len(flows) {
		f := flows[c]
		if order != nil {
			f = flows[order[c]]
		}
		if f.Src >= hi {
			break
		}
		c++
		links, np, stride := rows.PairPathLinks(f.Src, f.Dst)
		if np == 0 {
			continue
		}
		for j, k := range e.ks {
			// The scheme's effective path count at limit k: min(k, np)
			// for limited schemes (prefix nesting makes the first
			// min(k, np) segments exactly the K=k path set), all np for
			// UMULTI, and np == 1 already for single-path schemes.
			b := np
			if e.class == classLimited && k < np {
				b = k
			}
			share := f.Amount / float64(b)
			ri := s*nK + j
			row := e.rows[ri]
			tch := e.touched[ri]
			for _, l := range links[:b*stride] {
				v := row[l]
				if v == 0 {
					tch = append(tch, l)
				}
				row[l] = v + share
			}
			e.touched[ri] = tch
		}
	}
	e.cursors[s] = c
	return int64(c - c0)
}

func countFlows(tms []*traffic.Matrix) int64 {
	var n int64
	for _, tm := range tms {
		n += int64(tm.NumFlows())
	}
	return n
}
