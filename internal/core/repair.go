package core

import (
	"fmt"

	"xgftsim/internal/topology"
)

// RepairedRouting is a Routing evaluated against a degraded fabric:
// whenever a pair's chosen path crosses a failed link, the scheme
// re-selects within its own policy, so the emitted path set never
// crosses a dead link and is non-empty whenever the pair is still
// connected by some shortest path. Pairs with no surviving shortest
// path are reported (Disconnected, DisconnectedPairs) instead of being
// routed over broken links. Like Routing, a RepairedRouting is a few
// words, derives everything on demand, and is safe for concurrent use
// once the FaultSet is frozen.
//
// Each scheme repairs by walking its own preference order over the
// pair's X path indices and keeping the first surviving ones:
//
//   - d-mod-k / s-mod-k fall back to the nearest surviving index after
//     their canonical one (wrapping modulo X);
//   - shift-1 slides its K-wide window past dead indices — the kept
//     indices are the first K alive in (i0, i0+1, ...) order;
//   - disjoint walks its fork-maximizing enumeration and re-strides to
//     the next fork whenever an index is dead;
//   - random / random-single redraw from the pair's deterministic RNG
//     stream (a fresh repair substream, so results do not depend on how
//     much randomness the healthy selection consumed);
//   - umulti keeps every surviving path.
//
// At K at or above the number of surviving paths every multi-path
// scheme therefore degrades to UMULTI over the surviving paths.
type RepairedRouting struct {
	base   *Routing
	faults *topology.FaultSet
}

// repairStreamSalt decorrelates the repair RNG substream from the
// healthy per-pair selection stream.
const repairStreamSalt = 0x5eaf00d

// Repair binds the routing to a degraded fabric. The FaultSet must be
// over the routing's topology and must not be mutated afterwards.
// Custom selectors outside this package are rejected: repair re-walks
// each scheme's preference order, which only the package schemes
// define.
func (r *Routing) Repair(f *topology.FaultSet) (*RepairedRouting, error) {
	if f == nil {
		return nil, fmt.Errorf("core: Repair requires a fault set (use an empty FaultSet for a healthy fabric)")
	}
	if f.Topology() != r.topo {
		return nil, fmt.Errorf("core: fault set is over %s, routing is over %s", f.Topology(), r.topo)
	}
	switch r.sel.(type) {
	case DModK, SModK, RandomSingle, Shift1, Disjoint, RandomK, UMulti:
	default:
		return nil, fmt.Errorf("core: cannot repair custom scheme %q (no repair preference order defined)", r.sel.Name())
	}
	return &RepairedRouting{base: r, faults: f}, nil
}

// MustRepair is Repair but panics on error; for tests and examples.
func (r *Routing) MustRepair(f *topology.FaultSet) *RepairedRouting {
	rr, err := r.Repair(f)
	if err != nil {
		panic(err)
	}
	return rr
}

// Base returns the healthy routing the repair wraps.
func (rr *RepairedRouting) Base() *Routing { return rr.base }

// Faults returns the fault set the routing is repaired against.
func (rr *RepairedRouting) Faults() *topology.FaultSet { return rr.faults }

// Topology returns the underlying topology.
func (rr *RepairedRouting) Topology() *topology.Topology { return rr.base.topo }

// String identifies the repaired routing, e.g.
// "disjoint(K=4)/faults(12/1280 links down)".
func (rr *RepairedRouting) String() string {
	return fmt.Sprintf("%s/%s", rr.base, rr.faults)
}

// Disconnected reports whether the pair has no surviving shortest path:
// its traffic cannot be delivered by any minimal oblivious routing and
// is reported rather than routed.
func (rr *RepairedRouting) Disconnected(src, dst int) bool {
	return !rr.faults.Connected(src, dst)
}

// DisconnectedPairs enumerates every ordered SD pair with no surviving
// shortest path.
func (rr *RepairedRouting) DisconnectedPairs() [][2]int {
	n := rr.base.topo.NumProcessors()
	var out [][2]int
	if rr.faults.Empty() {
		return out
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst && !rr.faults.Connected(src, dst) {
				out = append(out, [2]int{src, dst})
			}
		}
	}
	return out
}

// AppendPathsScratch appends the repaired path indices for the SD pair
// using the caller's scratch RNG state; the degraded analogue of
// Routing.AppendPathsScratch, and like it deterministic in
// (seed, src, dst) and allocation-free on the hot path.
func (rr *RepairedRouting) AppendPathsScratch(ps *PathScratch, buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	if rr.faults.Empty() {
		return rr.base.AppendPathsScratch(ps, buf, src, dst)
	}
	start := len(buf)
	buf = rr.base.AppendPathsScratch(ps, buf, src, dst)
	t := rr.base.topo
	k := t.NCALevel(src, dst)
	var up [maxDigits]int
	ok := true
	for _, idx := range buf[start:] {
		if !rr.pathAlive(src, dst, k, idx, &up) {
			ok = false
			break
		}
	}
	if ok {
		return buf // healthy selection survives untouched
	}
	return rr.repairSelect(ps, buf[:start], src, dst, k)
}

// AppendPaths is AppendPathsScratch with throwaway RNG state.
func (rr *RepairedRouting) AppendPaths(buf []int, src, dst int) []int {
	return rr.AppendPathsScratch(NewPathScratch(), buf, src, dst)
}

// Paths returns the repaired path indices in a fresh slice; empty for
// disconnected pairs.
func (rr *RepairedRouting) Paths(src, dst int) []int {
	return rr.AppendPaths(nil, src, dst)
}

// PortRoutes expands the pair's repaired paths into output-port
// sequences for source routing.
func (rr *RepairedRouting) PortRoutes(src, dst int) [][]int {
	idx := rr.Paths(src, dst)
	out := make([][]int, len(idx))
	for i, id := range idx {
		out[i] = PortRoute(rr.base.topo, src, dst, id)
	}
	return out
}

// maxDigits sizes digit scratch buffers (topology caps h at 16).
const maxDigits = 17

// pathAlive decodes idx into scratch and tests it against the faults.
func (rr *RepairedRouting) pathAlive(src, dst, k, idx int, up *[maxDigits]int) bool {
	t := rr.base.topo
	for j := k; j >= 1; j-- {
		up[j-1] = idx % t.W(j)
		idx /= t.W(j)
	}
	return rr.faults.PathAlive(src, dst, up[:k])
}

// repairSelect walks the scheme's preference order over all X indices
// and appends the first surviving ones, up to the scheme's path count.
// One pruned DFS (AlivePathBits) answers every candidate's liveness, so
// the walk costs two instructions per index instead of a decode plus a
// link walk each.
func (rr *RepairedRouting) repairSelect(ps *PathScratch, buf []int, src, dst, k int) []int {
	t := rr.base.topo
	x := t.WProd(k)
	ps.alive = rr.faults.AlivePathBits(src, dst, ps.alive)
	alive := ps.alive
	take := func(order func(c int) int, want int) []int {
		for c := 0; c < x && want > 0; c++ {
			idx := order(c)
			if alive[idx>>6]&(1<<(uint(idx)&63)) != 0 {
				buf = append(buf, idx)
				want--
			}
		}
		return buf
	}
	switch rr.base.sel.(type) {
	case DModK:
		i0 := DModKIndex(t, dst, k)
		return take(func(c int) int { return (i0 + c) % x }, 1)
	case SModK:
		i0 := SModKIndex(t, src, k)
		return take(func(c int) int { return (i0 + c) % x }, 1)
	case Shift1:
		i0 := DModKIndex(t, dst, k)
		return take(func(c int) int { return (i0 + c) % x }, clampK(rr.base.k, x))
	case Disjoint:
		i0 := DModKIndex(t, dst, k)
		offs := ps.disjointOffsets(t, k, x)
		return take(func(c int) int { return (i0 + int(offs[c])) % x }, clampK(rr.base.k, x))
	case UMulti:
		return take(func(c int) int { return c }, x)
	case RandomSingle, RandomK:
		want := 1
		if _, ok := rr.base.sel.(RandomK); ok {
			want = clampK(rr.base.k, x)
		}
		perm := rr.repairPerm(ps, src, dst, x)
		// Lazy Fisher-Yates: take asks for c = 0, 1, 2, ... in turn, so
		// each call fixes exactly the next slot of the permutation.
		return take(func(c int) int {
			j := c + ps.rng.Intn(x-c)
			perm[c], perm[j] = perm[j], perm[c]
			return perm[c]
		}, want)
	}
	panic("core: unreachable — Repair validated the scheme") // invariant guard
}

// disjointOffsets returns the cached disjoint preference-order table
// for NCA level k: offs[c] = DisjointOffset(t, k, c). The table only
// depends on (topology, k), not on the pair, so a scratch computes it
// once per level and re-derives it if moved to another topology.
func (ps *PathScratch) disjointOffsets(t *topology.Topology, k, x int) []int32 {
	if ps.djTopo != t {
		ps.djTopo = t
		ps.djOff = [maxDigits][]int32{}
	}
	if ps.djOff[k] == nil {
		offs := make([]int32, x)
		for c := range offs {
			offs[c] = int32(DisjointOffset(t, k, c))
		}
		ps.djOff[k] = offs
	}
	return ps.djOff[k]
}

// repairPerm seeds ps's RNG from the pair's dedicated repair substream
// and returns the identity over [0, x) in ps's reused buffer, ready for
// repairSelect to shuffle lazily into a deterministic random order.
func (rr *RepairedRouting) repairPerm(ps *PathScratch, src, dst, x int) []int {
	r := rr.base
	ps.src.SeedStream(r.seed^repairStreamSalt, int64(src)*int64(r.topo.NumProcessors())+int64(dst))
	if cap(ps.perm) < x {
		ps.perm = make([]int, x)
	}
	perm := ps.perm[:x]
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// NumAlivePaths returns the number of surviving shortest paths for the
// pair; the repaired path count is min(scheme count, NumAlivePaths).
func (rr *RepairedRouting) NumAlivePaths(src, dst int) int {
	if src == dst {
		return 0
	}
	return rr.faults.AlivePaths(src, dst)
}
