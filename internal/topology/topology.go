// Package topology implements extended generalized fat-trees
// (XGFTs, Ohring et al. 1995) as pure-arithmetic graphs: node labels,
// port numbering, link identities, nearest-common-ancestor queries and
// shortest-path realization are all computed from the (h; m1..mh;
// w1..wh) parameters without materializing adjacency tables, so even
// the 3456-node 24-port 3-tree costs a few hundred bytes.
//
// An XGFT(h; m1,...,mh; w1,...,wh) has h+1 levels of nodes. Level 0
// holds the processing nodes; levels 1..h hold switches. Each level-i
// node (i < h) has w_{i+1} parents, and each level-i node (i >= 1) has
// m_i children. Ports on a level-i node are numbered with the up ports
// first (0..w_{i+1}-1) followed by the down ports, matching the paper.
package topology

import (
	"fmt"
	"strings"
)

// MaxHeight bounds the tree height; real installations use h <= 4 and
// the bound lets hot paths use fixed-size digit buffers.
const MaxHeight = 16

// NodeID identifies a node (processing node or switch) in an XGFT.
// IDs are dense: all level-0 nodes first, then level 1, and so on.
type NodeID int

// LinkID identifies a directed link. Every cable between a child and a
// parent contributes two directed links: the up direction (child to
// parent) and the down direction (parent to child). IDs are dense.
type LinkID int

// Topology is an immutable extended generalized fat-tree. The zero
// value is not usable; construct with New or one of the variant
// constructors (MPortNTree, KAryNTree, GFT).
type Topology struct {
	h int
	m []int // m[1..h]; m[0] unused
	w []int // w[1..h]; w[0] unused

	levelCount  []int // levelCount[l]: number of nodes at level l
	levelOffset []int // levelOffset[l]: first NodeID at level l
	numNodes    int

	edgeOffset []int // edgeOffset[l]: first (undirected) edge index for edges between levels l and l+1
	numEdges   int

	mprod []int // mprod[l] = Π_{i=l+1..h} m_i
	wprod []int // wprod[l] = Π_{i=1..l} w_i

	// pathOff[k][idx·k + j-1] is the pair-independent part of the
	// level-j link IDs of canonical level-k path idx (see
	// PathOffsets); nil for levels above maxPathOffEntries entries.
	pathOff [][]int32
}

// maxPathOffEntries caps one level's pathOff table (256 KiB); larger
// levels decode path digits per path instead.
const maxPathOffEntries = 1 << 16

// New constructs XGFT(h; m[0..h-1]; w[0..h-1]). The slices use natural
// 0-based Go indexing: m[i-1] and w[i-1] hold the paper's m_i and w_i.
// All arities must be at least 1 and h at least 1. Topologies with
// more than about a billion nodes are rejected to keep arithmetic in
// range.
func New(h int, m, w []int) (*Topology, error) {
	if h < 1 {
		return nil, fmt.Errorf("topology: height h must be >= 1, got %d", h)
	}
	if h > MaxHeight {
		return nil, fmt.Errorf("topology: height h must be <= %d, got %d", MaxHeight, h)
	}
	if len(m) != h || len(w) != h {
		return nil, fmt.Errorf("topology: need exactly h=%d arities, got |m|=%d |w|=%d", h, len(m), len(w))
	}
	t := &Topology{
		h: h,
		m: make([]int, h+1),
		w: make([]int, h+1),
	}
	for i := 1; i <= h; i++ {
		if m[i-1] < 1 {
			return nil, fmt.Errorf("topology: m_%d must be >= 1, got %d", i, m[i-1])
		}
		if w[i-1] < 1 {
			return nil, fmt.Errorf("topology: w_%d must be >= 1, got %d", i, w[i-1])
		}
		t.m[i] = m[i-1]
		t.w[i] = w[i-1]
	}
	t.mprod = make([]int, h+1)
	t.wprod = make([]int, h+1)
	t.mprod[h] = 1
	for l := h - 1; l >= 0; l-- {
		t.mprod[l] = t.mprod[l+1] * t.m[l+1]
		if t.mprod[l] < 0 || t.mprod[l] > 1<<30 {
			return nil, fmt.Errorf("topology: node count overflow at level %d", l)
		}
	}
	t.wprod[0] = 1
	for l := 1; l <= h; l++ {
		t.wprod[l] = t.wprod[l-1] * t.w[l]
		if t.wprod[l] < 0 || t.wprod[l] > 1<<30 {
			return nil, fmt.Errorf("topology: switch count overflow at level %d", l)
		}
	}
	t.levelCount = make([]int, h+1)
	t.levelOffset = make([]int, h+2)
	for l := 0; l <= h; l++ {
		t.levelCount[l] = t.mprod[l] * t.wprod[l]
		t.levelOffset[l+1] = t.levelOffset[l] + t.levelCount[l]
	}
	t.numNodes = t.levelOffset[h+1]
	t.edgeOffset = make([]int, h+1)
	for l := 0; l < h; l++ {
		t.edgeOffset[l+1] = t.edgeOffset[l] + t.levelCount[l]*t.w[l+1]
	}
	t.numEdges = t.edgeOffset[h]
	t.pathOff = make([][]int32, h+1)
	for k := 1; k <= h; k++ {
		if x := t.wprod[k]; x*k <= maxPathOffEntries {
			t.pathOff[k] = make([]int32, x*k)
			for idx := 0; idx < x; idx++ {
				t.PathOffsets(k, idx, t.pathOff[k][idx*k:idx*k+k])
			}
		}
	}
	return t, nil
}

// MustNew is New but panics on error; intended for tests, examples and
// literal topology tables.
func MustNew(h int, m, w []int) *Topology {
	t, err := New(h, m, w)
	if err != nil {
		panic(err)
	}
	return t
}

// H returns the number of switch levels (the tree height).
func (t *Topology) H() int { return t.h }

// M returns m_i, the child arity at level i, for 1 <= i <= h.
func (t *Topology) M(i int) int {
	t.checkLevelIndex(i)
	return t.m[i]
}

// W returns w_i, the parent arity of level i-1 nodes, for 1 <= i <= h.
func (t *Topology) W(i int) int {
	t.checkLevelIndex(i)
	return t.w[i]
}

func (t *Topology) checkLevelIndex(i int) {
	if i < 1 || i > t.h {
		panic(fmt.Sprintf("topology: arity index %d out of range [1,%d]", i, t.h))
	}
}

// NumProcessors returns the number of level-0 processing nodes,
// Π_{i=1..h} m_i.
func (t *Topology) NumProcessors() int { return t.mprod[0] }

// NumSwitches returns the number of switch nodes (levels 1..h).
func (t *Topology) NumSwitches() int { return t.numNodes - t.mprod[0] }

// NumNodes returns the total number of nodes across all levels.
func (t *Topology) NumNodes() int { return t.numNodes }

// NumTopSwitches returns the number of level-h switches, Π_{i=1..h} w_i.
func (t *Topology) NumTopSwitches() int { return t.wprod[t.h] }

// NodesAtLevel returns the number of nodes at level l (0 <= l <= h):
// (Π_{i=l+1..h} m_i) · (Π_{i=1..l} w_i).
func (t *Topology) NodesAtLevel(l int) int {
	t.checkLevel(l)
	return t.levelCount[l]
}

func (t *Topology) checkLevel(l int) {
	if l < 0 || l > t.h {
		panic(fmt.Sprintf("topology: level %d out of range [0,%d]", l, t.h))
	}
}

// MaxPaths returns the largest number of shortest paths between any
// two processing nodes, Π_{i=1..h} w_i (Property 1 with k = h).
func (t *Topology) MaxPaths() int { return t.wprod[t.h] }

// WProd returns Π_{i=1..l} w_i for 0 <= l <= h (WProd(0) == 1). This is
// the number of shortest paths for SD pairs whose NCA is at level l,
// and also the number of level-l top switches in a height-l subtree.
func (t *Topology) WProd(l int) int {
	t.checkLevel(l)
	return t.wprod[l]
}

// MProd returns Π_{i=l+1..h} m_i for 0 <= l <= h (MProd(h) == 1): the
// number of height-l subtrees the XGFT decomposes into.
func (t *Topology) MProd(l int) int {
	t.checkLevel(l)
	return t.mprod[l]
}

// TL returns the number of one-directional links connecting a height-k
// subtree (0 <= k < h) to the rest of the XGFT in one direction:
// TL(k) = Π_{i=1..k+1} w_i. Every level-k top switch of the subtree has
// w_{k+1} parents outside it.
func (t *Topology) TL(k int) int {
	if k < 0 || k >= t.h {
		panic(fmt.Sprintf("topology: TL level %d out of range [0,%d)", k, t.h))
	}
	return t.wprod[k+1]
}

// String renders the topology in the paper's notation, e.g.
// "XGFT(3; 4,4,8; 1,4,4)".
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "XGFT(%d; ", t.h)
	for i := 1; i <= t.h; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", t.m[i])
	}
	b.WriteString("; ")
	for i := 1; i <= t.h; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", t.w[i])
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports whether two topologies have identical parameters.
func (t *Topology) Equal(o *Topology) bool {
	if t.h != o.h {
		return false
	}
	for i := 1; i <= t.h; i++ {
		if t.m[i] != o.m[i] || t.w[i] != o.w[i] {
			return false
		}
	}
	return true
}
