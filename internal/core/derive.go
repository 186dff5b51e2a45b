package core

import (
	"fmt"

	"xgftsim/internal/topology"
)

// RowDeriver computes single CSR rows of a closed-form routing on
// demand: the pair's canonical path indices from the same generator the
// segment fill uses (idxGen) and their links by the per-path expansion
// the lazy evaluator uses (AppendPathSetLinks), into scratch the
// deriver owns. It is the table-free row source of block-mode
// evaluation — a permutation sample reads N of the N² rows a block
// table would compile, so deriving exactly those rows replaces
// compiling, pooling and caching all of them. Rows are bit-identical to
// RoutingSegment.PairPathLinks and CompiledRouting.PairPathLinks
// (TestRowDeriverMatchesTables).
//
// Not safe for concurrent use; each evaluator holds its own. Steady
// state allocates nothing.
type RowDeriver struct {
	gen  idxGen
	topo *topology.Topology
	src  int

	idxBuf  []int32
	pathBuf []int
	linkBuf []topology.LinkID
	links   []int32
}

// NewRowDeriver creates a deriver for r, whose selector must be
// closed-form (see ClosedForm).
func NewRowDeriver(r *Routing) *RowDeriver {
	if !ClosedForm(r.Selector()) {
		panic(fmt.Sprintf("core: selector %s has no closed form; RowDeriver cannot derive its rows", r.Selector().Name()))
	}
	t := r.Topology()
	d := &RowDeriver{gen: newIdxGen(r), topo: t, src: -1}
	maxLinks := d.gen.maxNP * 2 * d.gen.h
	d.idxBuf = make([]int32, d.gen.maxNP)
	d.pathBuf = make([]int, 0, d.gen.maxNP)
	d.linkBuf = make([]topology.LinkID, 0, maxLinks)
	d.links = make([]int32, maxLinks)
	return d
}

// PairPathLinks is CompiledRouting.PairPathLinks computed on the spot:
// the pair's links as numPaths prefix-nested fixed-stride path
// segments. The returned slice aliases the deriver's scratch and is
// valid until the next call.
func (d *RowDeriver) PairPathLinks(src, dst int) (links []int32, numPaths, stride int) {
	if n := d.topo.NumProcessors(); src < 0 || src >= n || dst < 0 || dst >= n {
		panic(fmt.Sprintf("core: pair (%d,%d) out of range [0,%d)", src, dst, n))
	}
	if src == dst {
		return nil, 0, 0
	}
	g := &d.gen
	if src != d.src {
		g.setSource(src)
		d.src = src
	}
	k := d.topo.NCALevel(src, dst)
	d.pathBuf = d.pathBuf[:0]
	for _, idx := range g.indices(dst, k, d.idxBuf) {
		d.pathBuf = append(d.pathBuf, int(idx))
	}
	d.linkBuf = AppendPathSetLinks(d.topo, src, dst, d.pathBuf, d.linkBuf[:0])
	links = d.links[:len(d.linkBuf)]
	for i, l := range d.linkBuf {
		links[i] = int32(l)
	}
	return links, len(d.pathBuf), 2 * k
}
