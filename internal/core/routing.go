package core

import (
	"fmt"
	"math/rand"

	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
)

// Routing binds a topology, a path-selection scheme and the per-pair
// path limit K into a concrete limited multi-path routing. Path sets
// are computed on demand from pure arithmetic (plus a deterministic
// per-pair RNG stream for randomized schemes), so a Routing costs a
// few words regardless of system size and is safe for concurrent use.
type Routing struct {
	topo *topology.Topology
	sel  Selector
	k    int
	seed int64
}

// NewRouting creates a routing over t using the scheme sel with path
// limit limK (<= 0 means unlimited, i.e. every pair may use all of its
// shortest paths). seed feeds the per-pair RNG streams of randomized
// schemes; deterministic schemes ignore it. Running the same seed
// always reproduces the same routing, as the paper's protocol
// ("average of five random seeds") requires.
func NewRouting(t *topology.Topology, sel Selector, limK int, seed int64) *Routing {
	if t == nil || sel == nil {
		panic("core: NewRouting requires a topology and a selector")
	}
	return &Routing{topo: t, sel: sel, k: limK, seed: seed}
}

// Topology returns the topology the routing is defined over.
func (r *Routing) Topology() *topology.Topology { return r.topo }

// Selector returns the path-selection scheme.
func (r *Routing) Selector() Selector { return r.sel }

// K returns the configured path limit (<= 0 meaning unlimited).
func (r *Routing) K() int { return r.k }

// Seed returns the RNG seed for randomized schemes.
func (r *Routing) Seed() int64 { return r.seed }

// String identifies the routing, e.g. "disjoint(K=4)".
func (r *Routing) String() string {
	if !r.sel.MultiPath() {
		return r.sel.Name()
	}
	if r.k <= 0 {
		return fmt.Sprintf("%s(K=all)", r.sel.Name())
	}
	return fmt.Sprintf("%s(K=%d)", r.sel.Name(), r.k)
}

// pairRNG derives the deterministic RNG stream for an SD pair. It uses
// a splitmix64 source seeded from (seed, src, dst): constructing one is
// a single multiply-and-xor chain, so randomized schemes pay no
// per-pair allocation-heavy seeding on the evaluation hot path. This
// intentionally changed the randomized schemes' concrete path choices
// relative to earlier revisions (which seeded a default math/rand
// source per pair); the distributions are identical, results remain
// deterministic in (seed, src, dst), and TestPairRNGGolden pins the
// new sequences.
func (r *Routing) pairRNG(src, dst int) *rand.Rand {
	return stats.CheapStream(r.seed, int64(src)*int64(r.topo.NumProcessors())+int64(dst))
}

// AppendPaths appends the path indices used for traffic from src to
// dst (distinct processing nodes) and returns the extended slice.
// Traffic is split uniformly across them (the paper's f_{i,j}^k = 1/K).
func (r *Routing) AppendPaths(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	var rng *rand.Rand
	if _, deterministic := r.sel.(interface{ deterministic() }); !deterministic {
		rng = r.pairRNG(src, dst)
	}
	return r.sel.Select(r.topo, src, dst, r.k, rng, buf)
}

// Paths returns the path indices for the SD pair in a fresh slice.
func (r *Routing) Paths(src, dst int) []int {
	return r.AppendPaths(nil, src, dst)
}

// PathScratch is caller-owned RNG state for AppendPathsScratch: one
// reusable generator that is reseeded per pair instead of allocated per
// pair. Each goroutine walking many pairs should hold its own.
type PathScratch struct {
	src stats.SplitMix
	rng *rand.Rand
	// Repair scratch: the surviving-path bitmap of the pair being
	// re-selected, the random schemes' preference permutation, and the
	// cached disjoint preference-order offsets (pair-independent, so
	// each scratch derives them once per NCA level; see
	// PathScratch.disjointOffsets).
	alive  []uint64
	perm   []int
	djTopo *topology.Topology
	djOff  [maxDigits][]int32
}

// NewPathScratch creates scratch RNG state for AppendPathsScratch.
func NewPathScratch() *PathScratch {
	ps := &PathScratch{}
	ps.rng = rand.New(&ps.src)
	return ps
}

// AppendPathsScratch is AppendPaths using the caller's scratch RNG. It
// yields exactly the same path sets (the streams are deterministic in
// (seed, src, dst) either way) but performs zero allocations, which is
// what the flow evaluator's sampling loop needs: it visits N pairs per
// sampled permutation.
func (r *Routing) AppendPathsScratch(ps *PathScratch, buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	var rng *rand.Rand
	if _, deterministic := r.sel.(interface{ deterministic() }); !deterministic {
		ps.src.SeedStream(r.seed, int64(src)*int64(r.topo.NumProcessors())+int64(dst))
		rng = ps.rng
	}
	return r.sel.Select(r.topo, src, dst, r.k, rng, buf)
}

// AppendPathsLimitedScratch is AppendPathsScratch with an explicit
// path limit limK overriding the routing's configured K. For
// prefix-nested selectors (every built-in; see PrefixNested) the
// result at any smaller limit is a prefix of the result at a larger
// one on the same pair, which lets the multi-K evaluator derive the
// single longest prefix a whole K grid needs instead of re-selecting
// per K.
func (r *Routing) AppendPathsLimitedScratch(ps *PathScratch, buf []int, src, dst, limK int) []int {
	if src == dst {
		return buf
	}
	var rng *rand.Rand
	if _, deterministic := r.sel.(interface{ deterministic() }); !deterministic {
		ps.src.SeedStream(r.seed, int64(src)*int64(r.topo.NumProcessors())+int64(dst))
		rng = ps.rng
	}
	return r.sel.Select(r.topo, src, dst, limK, rng, buf)
}

// PathSet is the materialized multi-path route of one SD pair: the
// paper's MP_{i,j} with traffic fractions f_{i,j}.
type PathSet struct {
	Src, Dst int
	// Indices holds the canonical path indices (see DecodePathIndex).
	Indices []int
	// Fracs[i] is the fraction of the pair's traffic routed on
	// Indices[i]; the fractions sum to 1. NewRouting always produces
	// the uniform split.
	Fracs []float64
}

// PathSetFor materializes the route for one SD pair.
func (r *Routing) PathSetFor(src, dst int) PathSet {
	idx := r.Paths(src, dst)
	fr := make([]float64, len(idx))
	if len(idx) > 0 {
		u := 1.0 / float64(len(idx))
		for i := range fr {
			fr[i] = u
		}
	}
	return PathSet{Src: src, Dst: dst, Indices: idx, Fracs: fr}
}

// PortRoutes expands the pair's paths into output-port sequences for
// source routing (one inner slice per path).
func (r *Routing) PortRoutes(src, dst int) [][]int {
	idx := r.Paths(src, dst)
	out := make([][]int, len(idx))
	for i, id := range idx {
		out[i] = PortRoute(r.topo, src, dst, id)
	}
	return out
}

// MaxPathsUsed returns the largest number of paths the routing will
// assign to any SD pair: the resource footprint that limited
// multi-path routing trades against performance.
func (r *Routing) MaxPathsUsed() int {
	x := r.topo.MaxPaths()
	if !r.sel.MultiPath() {
		return 1
	}
	return clampK(r.k, x)
}

// pathCount predicts the number of paths Select produces for a pair
// with NCA level k (k == 0 meaning a self pair). Every scheme in this
// package emits a fixed count per level: 1 for single-path schemes,
// min(K, X) for the limited heuristics and all X paths for UMULTI
// (which ignores K). CompileRouting sizes its flat arrays from this
// and verifies the prediction while filling them.
func (r *Routing) pathCount(k int) int {
	if k == 0 {
		return 0
	}
	x := r.topo.WProd(k)
	if _, unlimited := r.sel.(UMulti); unlimited {
		return x
	}
	if !r.sel.MultiPath() {
		return 1
	}
	return clampK(r.k, x)
}

// Deterministic marker: schemes embedding this do not consume RNG, so
// Routing can skip deriving per-pair streams.
func (DModK) deterministic()    {}
func (SModK) deterministic()    {}
func (Shift1) deterministic()   {}
func (Disjoint) deterministic() {}
func (UMulti) deterministic()   {}
