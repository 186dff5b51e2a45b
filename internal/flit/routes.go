package flit

import (
	"sync"

	"xgftsim/internal/core"
	"xgftsim/internal/topology"
)

// RouteTable is a thread-safe cache of per-pair port routes shared
// across engine instances, so a load sweep (or repeated-seed study)
// expands each SD pair's paths into source routes once instead of once
// per engine. When hydrated from a core.CompiledRouting the expansion
// skips the selector (and its RNG streams) entirely; otherwise routes
// come from the Routing on first use. Entries are immutable once
// stored, so readers may hold the returned slices without copying.
type RouteTable struct {
	routing  *core.Routing
	repaired *core.RepairedRouting
	compiled *core.CompiledRouting
	n        int

	mu     sync.RWMutex
	routes map[int64][][]int
	paths  map[int64]*pathEntry // adaptive-K: per-pair paths and port masks
}

// pathEntry caches one pair's compiled paths for the adaptive-K
// selector: the canonical path-index slice, the pair's
// nearest-common-ancestor level, and per upward level l < nca the mask
// of the paths leaving a level-l node through each up-port:
// ports[l][pt] has bit i set when path idxs[i] takes up-port pt there.
// Entries are immutable and aliased by every packet of the pair.
type pathEntry struct {
	idxs  []int32
	nca   int8
	ports [][]uint64
}

// newPathEntry precomputes the per-level port masks of a pair's paths.
// Path index digits are mixed-radix over the up-choices with u_1 most
// significant: the up-port at level l of a pair with NCA level k is
// idx / (WProd(k)/WProd(l+1)) % w_{l+1}. Path i contributes bit i, so
// only the first 64 paths are tracked (adaptive-K's validated limit).
func newPathEntry(t *topology.Topology, idxs []int32, nca int) *pathEntry {
	ent := &pathEntry{idxs: idxs, nca: int8(nca), ports: make([][]uint64, nca)}
	total := 0
	for l := 0; l < nca; l++ {
		total += t.W(l + 1)
	}
	masks := make([]uint64, total)
	for l := 0; l < nca; l++ {
		ups := t.W(l + 1)
		ent.ports[l], masks = masks[:ups:ups], masks[ups:]
		div := int32(t.WProd(nca) / t.WProd(l+1))
		for i, idx := range idxs {
			if i < 64 {
				ent.ports[l][int(idx/div)%ups] |= 1 << uint(i)
			}
		}
	}
	return ent
}

// pathIndices is the healthy routing's path-index set of a pair.
func pathIndices(r *core.Routing, src, dst int) []int32 {
	ids := r.Paths(src, dst)
	idxs := make([]int32, len(ids))
	for i, id := range ids {
		idxs[i] = int32(id)
	}
	return idxs
}

// NewRouteTable creates a shared route cache for r. compiled may be
// nil; when set it must have been compiled from a routing over the
// same topology and is used as the route source.
func NewRouteTable(r *core.Routing, compiled *core.CompiledRouting) *RouteTable {
	if compiled != nil && compiled.Topology() != r.Topology() {
		panic("flit: RouteTable compiled table is over a different topology")
	}
	return &RouteTable{
		routing:  r,
		compiled: compiled,
		n:        r.Topology().NumProcessors(),
		routes:   make(map[int64][][]int),
		paths:    make(map[int64]*pathEntry),
	}
}

// NewRepairedRouteTable creates a shared route cache expanding rr's
// repaired path sets, so every engine of a degraded-fabric sweep sees
// routes that avoid the failed links (and empty route sets for
// disconnected pairs). The fault set must not be mutated afterwards.
// compiled may be nil; when set it must hold rr's degraded paths —
// either its full CompileRepaired or a delta patch against the healthy
// base table (core.CompileRepairedDelta) — and routes then hydrate
// from the patched CSR rows instead of re-running per-pair lazy
// repair.
func NewRepairedRouteTable(rr *core.RepairedRouting, compiled *core.CompiledRouting) *RouteTable {
	if compiled != nil {
		if compiled.Routing() != rr.Base() {
			panic("flit: RouteTable compiled table is over a different routing")
		}
		if rep := compiled.Repaired(); rep != nil && rep != rr {
			// A healthy base table (rep == nil) is fine: delta repair
			// returns it unchanged when no selected path died.
			panic("flit: RouteTable compiled table repairs a different fault set")
		}
	}
	return &RouteTable{
		routing:  rr.Base(),
		repaired: rr,
		compiled: compiled,
		n:        rr.Topology().NumProcessors(),
		routes:   make(map[int64][][]int),
		paths:    make(map[int64]*pathEntry),
	}
}

// RoutesFor returns the pair's port routes, computing and caching them
// on first use. Safe for concurrent use.
func (rt *RouteTable) RoutesFor(src, dst int) [][]int {
	key := int64(src)*int64(rt.n) + int64(dst)
	rt.mu.RLock()
	r, ok := rt.routes[key]
	rt.mu.RUnlock()
	if ok {
		return r
	}
	switch {
	case rt.compiled != nil:
		r = rt.compiled.PortRoutes(src, dst)
	case rt.repaired != nil:
		r = rt.repaired.PortRoutes(src, dst)
	default:
		r = rt.routing.PortRoutes(src, dst)
	}
	rt.mu.Lock()
	// A concurrent fill may have won; keep the stored value so every
	// engine sees one canonical slice.
	if prev, ok := rt.routes[key]; ok {
		r = prev
	} else {
		rt.routes[key] = r
	}
	rt.mu.Unlock()
	return r
}

// PathIndicesFor returns the pair's canonical path indices and NCA
// level for the adaptive-K selector, computing and caching them on
// first use. Indices hydrate from a healthy compiled table when one is
// attached; otherwise (including repaired tables) they come from the
// healthy routing's enumeration — adaptive-K steers around failures at
// run time, so repair never narrows its path budget. Safe for
// concurrent use; the returned slice is immutable.
func (rt *RouteTable) PathIndicesFor(src, dst int) ([]int32, int) {
	ent := rt.entry(src, dst)
	return ent.idxs, int(ent.nca)
}

// entry is PathIndicesFor's cached pair entry, port masks included.
func (rt *RouteTable) entry(src, dst int) *pathEntry {
	key := int64(src)*int64(rt.n) + int64(dst)
	rt.mu.RLock()
	ent, ok := rt.paths[key]
	rt.mu.RUnlock()
	if ok {
		return ent
	}
	var idxs []int32
	if rt.compiled != nil && rt.compiled.Repaired() == nil {
		idxs = rt.compiled.PathIndices(src, dst)
	} else {
		idxs = pathIndices(rt.routing, src, dst)
	}
	t := rt.routing.Topology()
	ent = newPathEntry(t, idxs, t.NCALevel(src, dst))
	rt.mu.Lock()
	if prev, ok := rt.paths[key]; ok {
		ent = prev
	} else {
		rt.paths[key] = ent
	}
	rt.mu.Unlock()
	return ent
}
