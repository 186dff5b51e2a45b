// Package core implements the paper's primary contribution: limited
// multi-path routing on extended generalized fat-trees. It provides
// the canonical enumeration of the shortest paths between a
// source-destination (SD) pair, the classic single-path schemes
// (d-mod-k, s-mod-k, random) they build on, and the three limited
// multi-path path-selection heuristics — shift-1, disjoint and random
// — parameterized by the per-pair path limit K. All heuristics
// degenerate to their base single-path scheme at K=1 and become the
// provably optimal UMULTI when K reaches the pair's path count.
package core

import (
	"fmt"

	"xgftsim/internal/topology"
)

// Path enumeration. An SD pair with NCA level k has X = Π_{i=1..k} w_i
// shortest paths, one per level-k switch of the common subtree
// (Property 1). Path i is the path through the i-th leftmost such top
// switch. Reconstructed from the paper's worked examples (DESIGN.md
// §2), the index is the mixed-radix number over the up-port choices
// u_1..u_k with u_1 MOST significant and u_k LEAST significant:
//
//	i = ((…(u_1·w_2 + u_2)·w_3 + u_3)…)·w_k + u_k
//
// so consecutive indices differ only in the top-level choice, and the
// fork level between two paths is the smallest digit position at which
// their indices differ.

// DecodePathIndex expands path index idx for an SD pair whose NCA is
// at level k into the up-port digits u_1..u_k, appending them to buf
// (buf[j-1] = u_j). It panics if idx is out of [0, WProd(k)).
func DecodePathIndex(t *topology.Topology, k, idx int, buf []int) []int {
	if idx < 0 || idx >= t.WProd(k) {
		panic(fmt.Sprintf("core: path index %d out of range [0,%d)", idx, t.WProd(k)))
	}
	start := len(buf)
	for j := 0; j < k; j++ {
		buf = append(buf, 0)
	}
	for j := k; j >= 1; j-- {
		buf[start+j-1] = idx % t.W(j)
		idx /= t.W(j)
	}
	return buf
}

// EncodePathIndex packs up-port digits u_1..u_k back into the canonical
// path index.
func EncodePathIndex(t *topology.Topology, up []int) int {
	idx := 0
	for j := 1; j <= len(up); j++ {
		if up[j-1] < 0 || up[j-1] >= t.W(j) {
			panic(fmt.Sprintf("core: up digit u_%d=%d out of range [0,%d)", j, up[j-1], t.W(j)))
		}
		idx = idx*t.W(j) + up[j-1]
	}
	return idx
}

// ForkLevel returns the lowest level at which paths a and b for a
// common SD pair (NCA level k) diverge: the smallest j with differing
// u_j digits. Equal indices return k+1 (they never diverge). Two paths
// are link-disjoint from their fork level upward.
func ForkLevel(t *topology.Topology, k, a, b int) int {
	if a == b {
		return k + 1
	}
	// Digit u_j has stride Π_{t=j+1..k} w_t; compare from the least
	// significant (u_k, level k) downward and remember the smallest j
	// that differs.
	fork := k + 1
	for j := k; j >= 1; j-- {
		if a%t.W(j) != b%t.W(j) {
			fork = j
		}
		a /= t.W(j)
		b /= t.W(j)
	}
	return fork
}

// DModKIndex returns the canonical path index of the d-mod-k route for
// destination dst on an SD pair with NCA level k. Climbing from level
// j-1 to level j, d-mod-k takes parent port
//
//	u_j = ⌊dst / Π_{t<j} w_t⌋ mod w_j.
func DModKIndex(t *topology.Topology, dst, k int) int {
	idx := 0
	for j := 1; j <= k; j++ {
		u := (dst / t.WProd(j-1)) % t.W(j)
		idx = idx*t.W(j) + u
	}
	return idx
}

// SModKIndex is the source-mod-k analogue of DModKIndex: ports are
// derived from the source address instead of the destination.
func SModKIndex(t *topology.Topology, src, k int) int {
	return DModKIndex(t, src, k)
}

// PortRoute returns the output-port sequence realizing path index idx
// between processing nodes src and dst: ports[0] is the port taken at
// the source node and ports[i] the output port at the i-th switch on
// the path. The sequence has 2k elements for an NCA at level k. This
// is the source-route a packet carries in the flit-level simulator and
// the per-hop decision an InfiniBand forwarding table must reproduce.
func PortRoute(t *topology.Topology, src, dst, idx int) []int {
	k := t.NCALevel(src, dst)
	if k == 0 {
		return nil
	}
	up := DecodePathIndex(t, k, idx, make([]int, 0, k))
	ports := make([]int, 0, 2*k)
	// Upward: at the level-(j-1) node take up port u_j.
	ports = append(ports, up...)
	// Downward: at the level-j switch take the down port toward dst's
	// digit d_j. Down ports follow the w_{j+1} up ports except at the
	// top level h.
	d := dst
	digits := make([]int, k+1)
	for i := 1; i <= k; i++ {
		digits[i] = d % t.M(i)
		d /= t.M(i)
	}
	for j := k; j >= 1; j-- {
		port := digits[j]
		if j < t.H() {
			port += t.W(j + 1)
		}
		ports = append(ports, port)
	}
	return ports
}

// PathLinksForIndex appends the directed links of path idx for the SD
// pair to buf. Equivalent to decoding the index and calling
// topology.AppendPathLinks, fused to avoid a second digit pass.
func PathLinksForIndex(t *topology.Topology, src, dst, idx int, buf []topology.LinkID) []topology.LinkID {
	k := t.NCALevel(src, dst)
	var up [17]int
	u := DecodePathIndex(t, k, idx, up[:0])
	return t.AppendPathLinks(buf, src, dst, u)
}

// AppendPathSetLinks appends the directed links of every path index in
// idxs for the SD pair to buf (2k links per path, in idxs order) and
// returns the extended slice. It is equivalent to PathLinksForIndex in
// a loop, but everything that depends only on the pair — NCA level,
// index bound, the per-level edge bases of src and dst — is computed
// once (topology.AppendPathSetLinksNCA) and each path only adds its
// digit offsets. That is what the flow evaluators' sampling loops and
// CompileRouting's fill pass want: they expand K paths for each of N
// (or N²) pairs.
func AppendPathSetLinks(t *topology.Topology, src, dst int, idxs []int, buf []topology.LinkID) []topology.LinkID {
	if len(idxs) == 0 {
		return buf
	}
	k := t.NCALevel(src, dst)
	x := t.WProd(k)
	for _, idx := range idxs {
		if idx < 0 || idx >= x {
			panic(fmt.Sprintf("core: path index %d out of range [0,%d)", idx, x))
		}
	}
	return t.AppendPathSetLinksNCA(buf, src, dst, k, idxs)
}
