package core

import (
	"fmt"

	"xgftsim/internal/topology"
)

// Segment fill. compileSegment's job — every (src, dst) CSR row of a
// source block — has two structural regularities the generic per-pair
// loop (NCALevel + Selector.Select + AppendPathSetLinks for each dst)
// cannot exploit:
//
//  1. For a fixed source, the destination axis partitions into at most
//     2h+1 maximal intervals of constant NCA level (the nested aligned
//     subtree blocks of the source), so per-level constants — path
//     count, link stride, radix tables, the disjoint offset table —
//     hoist out of the dst loop entirely.
//  2. Path links separate into a (source, path index) half and a
//     destination half (see topology.LinkExpander), so the source half
//     of every canonical path is derived once per source instead of
//     once per pair.
//
// The filler below applies both. Path indices come from the closed-form
// per-scheme generator (idxGen, which RowDeriver shares) for the
// built-in deterministic selectors — identical formulas to their
// Select methods — and from
// Routing.AppendPathsScratch for randomized or custom selectors, so
// every emitted row is bit-identical to the generic loop —
// TestBlockCompiledMatchesCompiled diffs the result against
// CompileRouting pair by pair.

// fastScheme tags the built-in deterministic selectors with closed-form
// index generation; fastGeneric falls back to Selector.Select per pair.
type fastScheme int

const (
	fastGeneric fastScheme = iota
	fastDModK
	fastSModK
	fastShift1
	fastDisjoint
	fastUMulti
)

// fastKindOf maps a selector to its closed-form generator tag.
func fastKindOf(sel Selector) fastScheme {
	switch sel.(type) {
	case DModK:
		return fastDModK
	case SModK:
		return fastSModK
	case Shift1:
		return fastShift1
	case Disjoint:
		return fastDisjoint
	case UMulti:
		return fastUMulti
	default:
		return fastGeneric
	}
}

// ClosedForm reports whether sel is one of the built-in deterministic
// selectors (d-mod-k, s-mod-k, shift-1, disjoint, UMULTI): its path
// indices are arithmetic in the pair's digits and ignore the routing's
// seed, so block-mode evaluation derives rows on demand (RowDeriver)
// instead of compiling tables, and seed sweeps collapse to one seed.
func ClosedForm(sel Selector) bool { return fastKindOf(sel) != fastGeneric }

// idxGen is the closed-form path-index generator of one routing: radix
// tables, per-level path counts and the per-scheme offset tables. The
// segment fill and the RowDeriver both draw their indices from it, so
// the two can never disagree on a formula.
type idxGen struct {
	scheme fastScheme
	h      int

	w     [maxDigits]int
	wprod [maxDigits]int
	np    [maxDigits]int // paths per pair at NCA level k
	maxNP int

	offs [maxDigits][]int32 // disjoint enumeration offsets per level
	iota []int32            // 0..x-1 for UMULTI
	smod [maxDigits]int     // s-mod-k index per level (current source)
}

func newIdxGen(r *Routing) idxGen {
	t := r.Topology()
	g := idxGen{scheme: fastKindOf(r.sel), h: t.H()}
	g.wprod[0] = 1
	for k := 1; k <= g.h; k++ {
		g.w[k] = t.W(k)
		g.wprod[k] = t.WProd(k)
		g.np[k] = r.pathCount(k)
		if g.np[k] > g.maxNP {
			g.maxNP = g.np[k]
		}
	}
	switch g.scheme {
	case fastDisjoint:
		for k := 1; k <= g.h; k++ {
			g.offs[k] = make([]int32, g.np[k])
			for c := 0; c < g.np[k]; c++ {
				g.offs[k][c] = int32(DisjointOffset(t, k, c))
			}
		}
	case fastUMulti:
		g.iota = make([]int32, g.wprod[g.h])
		for i := range g.iota {
			g.iota[i] = int32(i)
		}
	}
	return g
}

// dmodkIndex is DModKIndex over the generator's cached radix tables.
func (g *idxGen) dmodkIndex(v, k int) int {
	idx := 0
	for j := 1; j <= k; j++ {
		idx = idx*g.w[j] + (v/g.wprod[j-1])%g.w[j]
	}
	return idx
}

// setSource hoists the source-anchored part of the index formulas
// (only s-mod-k has one) out of the per-destination step.
func (g *idxGen) setSource(src int) {
	if g.scheme == fastSModK {
		for k := 1; k <= g.h; k++ {
			g.smod[k] = g.dmodkIndex(src, k)
		}
	}
}

// indices returns the np[k] canonical path indices of the pair
// (current source, dst) at NCA level k — identical formulas to the
// selectors' Select methods — written into buf (UMULTI returns its
// shared 0..np-1 table instead). Closed-form schemes only.
func (g *idxGen) indices(dst, k int, buf []int32) []int32 {
	np := g.np[k]
	idxs := buf[:np]
	switch g.scheme {
	case fastDModK:
		idxs[0] = int32(g.dmodkIndex(dst, k))
	case fastSModK:
		idxs[0] = int32(g.smod[k])
	case fastShift1:
		x := g.wprod[k]
		i0 := g.dmodkIndex(dst, k)
		for c := 0; c < np; c++ {
			idxs[c] = int32((i0 + c) % x)
		}
	case fastDisjoint:
		x := g.wprod[k]
		i0 := g.dmodkIndex(dst, k)
		offs := g.offs[k]
		for c := 0; c < np; c++ {
			idxs[c] = int32((i0 + int(offs[c])) % x)
		}
	case fastUMulti:
		idxs = g.iota[:np]
	default:
		panic("core: idxGen.indices on a selector with no closed form")
	}
	return idxs
}

// segFiller holds the reusable state of one segment fill: the index
// generator, the link expander and the generic-selector scratch. One
// filler per compileSegment call; fills are single-goroutine (block
// parallelism is across segments).
type segFiller struct {
	idxGen
	r   *Routing
	exp *topology.LinkExpander
	n   int

	psub [maxDigits]int // processors per level-k subtree

	idxBuf  []int32
	pathBuf []int
	ps      *PathScratch
}

func newSegFiller(r *Routing) *segFiller {
	t := r.Topology()
	f := &segFiller{
		idxGen: newIdxGen(r),
		r:      r,
		exp:    t.NewLinkExpander(),
		n:      t.NumProcessors(),
	}
	f.psub[0] = 1
	for k := 1; k <= f.h; k++ {
		f.psub[k] = t.ProcessorsPerSubtree(k)
	}
	if f.scheme == fastGeneric {
		f.ps = NewPathScratch()
	}
	f.idxBuf = make([]int32, f.maxNP)
	return f
}

// perSourceCounts returns the exact per-source path and link totals —
// every source of an XGFT sees the same per-level pair counts, so the
// segment arrays can be sized in closed form before the fill.
func (f *segFiller) perSourceCounts() (paths, links int64) {
	for k := 1; k <= f.h; k++ {
		pairs := int64(f.psub[k] - f.psub[k-1])
		np := int64(f.np[k])
		paths += pairs * np
		links += pairs * np * int64(2*k)
	}
	return paths, links
}

// fill writes every CSR row of sources [lo, hi) into s, whose offset
// and data arrays are already sized exactly. Rows are emitted in the
// same (src, dst) order as the generic loop.
func (f *segFiller) fill(s *RoutingSegment, lo, hi int) error {
	var nPaths, nLinks int64
	p := 0
	for src := lo; src < hi; src++ {
		f.exp.SetSource(src)
		f.setSource(src)
		// Destination intervals of constant NCA level: the nested
		// aligned subtree blocks of src, split at the next-lower block.
		// Descending run (dst < src), the self pair, ascending run.
		for k := f.h; k >= 1; k-- {
			a := src - src%f.psub[k]
			b := src - src%f.psub[k-1]
			if a < b {
				if err := f.fillSpan(s, src, a, b, k, &p, &nPaths, &nLinks); err != nil {
					return err
				}
			}
		}
		s.pathOff[p] = nPaths
		s.linkOff[p] = nLinks
		p++ // self pair: empty row
		for k := 1; k <= f.h; k++ {
			a := src - src%f.psub[k-1] + f.psub[k-1]
			b := src - src%f.psub[k] + f.psub[k]
			if a < b {
				if err := f.fillSpan(s, src, a, b, k, &p, &nPaths, &nLinks); err != nil {
					return err
				}
			}
		}
	}
	s.pathOff[p] = nPaths
	s.linkOff[p] = nLinks
	if nPaths != int64(len(s.pathIdx)) || nLinks != int64(len(s.links)) {
		return fmt.Errorf("core: segment fill emitted %d paths/%d links, sized %d/%d",
			nPaths, nLinks, len(s.pathIdx), len(s.links))
	}
	return nil
}

// fillSpan emits the rows of destinations [d0, d1), all at NCA level k
// against src.
func (f *segFiller) fillSpan(s *RoutingSegment, src, d0, d1, k int, p *int, nPaths, nLinks *int64) error {
	np := f.np[k]
	stride := 2 * k
	row := *p
	paths := *nPaths
	links := *nLinks
	for dst := d0; dst < d1; dst++ {
		s.pathOff[row] = paths
		s.linkOff[row] = links
		row++
		var idxs []int32
		if f.scheme != fastGeneric {
			idxs = f.indices(dst, k, f.idxBuf)
		} else {
			f.pathBuf = f.r.AppendPathsScratch(f.ps, f.pathBuf[:0], src, dst)
			if len(f.pathBuf) != np {
				return fmt.Errorf("core: selector %s produced %d paths for pair (%d,%d), predicted %d; custom selectors must emit a fixed count per NCA level to be compilable",
					f.r.Selector().Name(), len(f.pathBuf), src, dst, np)
			}
			idxs = f.idxBuf[:np]
			for i, idx := range f.pathBuf {
				idxs[i] = int32(idx)
			}
		}
		copy(s.pathIdx[paths:paths+int64(np)], idxs)
		f.exp.PairLinks(dst, k, idxs, s.links[links:links+int64(np*stride)])
		paths += int64(np)
		links += int64(np * stride)
	}
	*p = row
	*nPaths = paths
	*nLinks = links
	return nil
}
