package topology

import (
	"fmt"
	"slices"
)

// A shortest path between processing nodes src and dst whose NCA is at
// level k is fully determined by the k up-port choices u_1..u_k taken
// at levels 0..k-1 (Property 1): the downward half is forced by dst.
// These helpers realize such a path as nodes or directed links.

// checkUpChoices validates the up-port digit slice for an (src,dst)
// pair and returns the NCA level.
func (t *Topology) checkUpChoices(src, dst int, up []int) int {
	k := t.NCALevel(src, dst)
	if len(up) != k {
		panic(fmt.Sprintf("topology: pair (%d,%d) has NCA level %d, got %d up choices", src, dst, k, len(up)))
	}
	for j := 1; j <= k; j++ {
		if up[j-1] < 0 || up[j-1] >= t.w[j] {
			panic(fmt.Sprintf("topology: up choice u_%d=%d out of range [0,%d)", j, up[j-1], t.w[j]))
		}
	}
	return k
}

// PathNodes returns the 2k+1 nodes of the shortest path from src to
// dst through up-port choices up (up[j-1] is the port used from level
// j-1 to level j). For src == dst it returns the single node.
func (t *Topology) PathNodes(src, dst int, up []int) []NodeID {
	k := t.checkUpChoices(src, dst, up)
	nodes := make([]NodeID, 0, 2*k+1)
	n := t.Processor(src)
	nodes = append(nodes, n)
	for j := 1; j <= k; j++ {
		n = t.Parent(n, up[j-1])
		nodes = append(nodes, n)
	}
	// Down phase: at level j the child digit a_j must become dst's
	// digit d_j.
	d := make([]int, k+1)
	rest := dst
	for i := 1; i <= k; i++ {
		d[i] = rest % t.m[i]
		rest /= t.m[i]
	}
	for j := k; j >= 1; j-- {
		n = t.Child(n, d[j])
		nodes = append(nodes, n)
	}
	if got := t.ProcessorID(n); got != dst {
		panic(fmt.Sprintf("topology: internal error, path ended at %d, want %d", got, dst))
	}
	return nodes
}

// AppendPathLinks appends the 2k directed links of the shortest path
// from src to dst through up-port choices up to buf and returns the
// extended slice. It allocates nothing when buf has capacity. The
// links appear in traversal order: k up links then k down links.
//
// The implementation is pure arithmetic (no Parent/Child calls): the
// within-level index of the up-path node at level l is
// sHigh_l·WProd(l) + uLow_l where sHigh_l strips l low m-digits from
// src and uLow_l packs u_1..u_l little-endian over bases w_1..w_l; the
// down-path node swaps in dst's high digits.
func (t *Topology) AppendPathLinks(buf []LinkID, src, dst int, up []int) []LinkID {
	k := t.checkUpChoices(src, dst, up)
	return t.AppendPathLinksNCA(buf, src, dst, k, up)
}

// AppendPathLinksNCA is AppendPathLinks for callers that have already
// established k = NCALevel(src, dst) and that the k digits in up are in
// range (e.g. by decoding a validated canonical path index). It skips
// the revalidation, which matters when expanding K paths for each of N
// pairs per sampled permutation; passing untrusted arguments corrupts
// the returned link IDs.
func (t *Topology) AppendPathLinksNCA(buf []LinkID, src, dst, k int, up []int) []LinkID {
	sHigh, dHigh := src, dst
	uLow := 0
	// Up links: tier j-1 edge = edgeOffset[j-1] + idx_{j-1}·w_j + u_j.
	for j := 1; j <= k; j++ {
		idx := sHigh*t.wprod[j-1] + uLow
		edge := t.edgeOffset[j-1] + idx*t.w[j] + up[j-1]
		buf = append(buf, LinkID(2*edge))
		sHigh /= t.m[j]
		uLow += up[j-1] * t.wprod[j-1]
	}
	// Down links, from tier k-1 back to tier 0. First strip dst's k low
	// digits; then re-add them most-significant-first as we descend.
	var dLow [MaxHeight + 1]int
	for j := 1; j <= k; j++ {
		dLow[j] = dHigh % t.m[j]
		dHigh /= t.m[j]
	}
	for j := k; j >= 1; j-- {
		dHigh = dHigh*t.m[j] + dLow[j]
		uLow -= up[j-1] * t.wprod[j-1]
		idx := dHigh*t.wprod[j-1] + uLow // index of the level j-1 down node
		edge := t.edgeOffset[j-1] + idx*t.w[j] + up[j-1]
		buf = append(buf, LinkID(2*edge+1))
	}
	return buf
}

// AppendPathSetLinksNCA appends the 2k links of every canonical path
// index in idxs (see core.DecodePathIndex) for a pair whose NCA level k
// the caller has established, path-major in idxs order. It equals
// decoding each index and calling AppendPathLinksNCA, factored as in
// LinkExpander: the level-j link IDs of path idx are
//
//	up   = 2·(edgeOffset[j-1] + up_j + off_j(idx))
//	down = 2·(edgeOffset[j-1] + down_j + off_j(idx)) + 1
//
// where the bases up_j and down_j depend only on the pair, so they are
// computed once (PathEdgeBases), and off_j(idx) depends only on the
// index, so it is read from a per-topology table (PathOffsetTable).
// Indices are not validated.
func (t *Topology) AppendPathSetLinksNCA(buf []LinkID, src, dst, k int, idxs []int) []LinkID {
	var upBase, downBase [MaxHeight]int
	t.PathEdgeBases(src, k, upBase[:])
	t.PathEdgeBases(dst, k, downBase[:])
	for j := 0; j < k; j++ {
		upBase[j] = 2 * (t.edgeOffset[j] + upBase[j])
		downBase[j] = 2*(t.edgeOffset[j]+downBase[j]) + 1
	}
	n := len(buf)
	buf = slices.Grow(buf, 2*k*len(idxs))[:n+2*k*len(idxs)]
	offs := t.pathOff[k]
	var dec [MaxHeight]int32
	for _, idx := range idxs {
		row := dec[:k]
		if offs != nil {
			row = offs[idx*k : idx*k+k]
		} else {
			t.PathOffsets(k, idx, row)
		}
		out := buf[n : n+2*k]
		for j, o := range row {
			out[j] = LinkID(upBase[j] + 2*int(o))
			out[2*k-1-j] = LinkID(downBase[j] + 2*int(o))
		}
		n += 2 * k
	}
	return buf
}

// PathEdgeBases writes, for j = 1..k, where the level-j edges of the
// paths that start or end at processor p begin within their tier (the
// CablesAtTier(j-1) cables between levels j-1 and j, numbered from 0):
// base[j-1] is the first of the WProd(j) cables leaving p's
// height-(j-1) subtree. A src→dst pair with NCA level k climbs tier
// edge base_src[j-1] + off_j(idx) on canonical path idx and descends
// base_dst[j-1] + off_j(idx) (see PathOffsets).
func (t *Topology) PathEdgeBases(p, k int, base []int) {
	for j := 1; j <= k; j++ {
		base[j-1] = p * t.wprod[j]
		p /= t.m[j]
	}
}

// PathOffsetTable returns PathOffsets of every canonical level-k path,
// row-major: entries [idx·k, idx·k+k) are path idx's row. It is nil
// for levels whose table would exceed maxPathOffEntries entries; call
// PathOffsets per path there. The slice must not be modified.
func (t *Topology) PathOffsetTable(k int) []int32 { return t.pathOff[k] }

// PathOffsets writes off_j(idx) = uLow_j·w_j + u_j for j = 1..k into
// row[j-1]: the part of path idx's level-j edges that does not depend
// on the pair (see PathEdgeBases). off_j is a bijection from the top j
// digits u_1..u_j of idx onto [0, WProd(j)), so paths share their
// level-j links exactly when they share those digits.
func (t *Topology) PathOffsets(k, idx int, row []int32) {
	var u [MaxHeight + 1]int
	for j := k; j >= 1; j-- {
		u[j] = idx % t.w[j]
		idx /= t.w[j]
	}
	uLow := 0
	for j := 1; j <= k; j++ {
		row[j-1] = int32(uLow*t.w[j] + u[j])
		uLow += u[j] * t.wprod[j-1]
	}
}

// PathLinks is AppendPathLinks with a fresh slice.
func (t *Topology) PathLinks(src, dst int, up []int) []LinkID {
	return t.AppendPathLinks(make([]LinkID, 0, 2*len(up)), src, dst, up)
}

// PathLen returns the hop count (number of links) of a shortest path
// between src and dst: twice the NCA level.
func (t *Topology) PathLen(src, dst int) int {
	return 2 * t.NCALevel(src, dst)
}

// SubtreeOfProcessor returns the index of the height-k subtree
// (0 <= k <= h) containing the given processing node; subtrees of
// height k are the MProd(k) copies of XGFT(k; m_1..m_k; w_1..w_k).
func (t *Topology) SubtreeOfProcessor(proc, k int) int {
	t.checkLevel(k)
	if proc < 0 || proc >= t.mprod[0] {
		panic(fmt.Sprintf("topology: processor %d out of range [0,%d)", proc, t.mprod[0]))
	}
	for i := 1; i <= k; i++ {
		proc /= t.m[i]
	}
	return proc
}

// ProcessorsPerSubtree returns the number of processing nodes in a
// height-k subtree: Π_{i=1..k} m_i.
func (t *Topology) ProcessorsPerSubtree(k int) int {
	t.checkLevel(k)
	n := 1
	for i := 1; i <= k; i++ {
		n *= t.m[i]
	}
	return n
}
