package topology

import (
	"fmt"

	"xgftsim/internal/stats"
)

// FaultSet models a degraded fabric: a set of directed links that are
// down. Faults are injected per directed link, per cable (both
// directions) or per switch (every incident link), either from explicit
// targets or drawn from a seeded RNG so failure sweeps are reproducible.
// A FaultSet is mutable while being built; once handed to a routing
// repair or a simulation it must no longer be modified, after which all
// read methods are safe for concurrent use.
type FaultSet struct {
	topo *Topology
	down []bool // down[l]: directed link l is failed
	num  int    // number of down directed links
}

// NewFaultSet creates an empty fault set over t (a healthy fabric).
func NewFaultSet(t *Topology) *FaultSet {
	return &FaultSet{topo: t, down: make([]bool, t.NumLinks())}
}

// Topology returns the fabric the faults apply to.
func (f *FaultSet) Topology() *Topology { return f.topo }

// NumDown returns the number of failed directed links.
func (f *FaultSet) NumDown() int { return f.num }

// Empty reports whether no link is failed.
func (f *FaultSet) Empty() bool { return f.num == 0 }

// LinkDown reports whether directed link l is failed.
func (f *FaultSet) LinkDown(l LinkID) bool {
	if l < 0 || int(l) >= len(f.down) {
		panic(fmt.Sprintf("topology: link %d out of range [0,%d)", l, len(f.down)))
	}
	return f.down[l]
}

// DownLinks returns the failed directed links in ascending order.
func (f *FaultSet) DownLinks() []LinkID {
	out := make([]LinkID, 0, f.num)
	for l, d := range f.down {
		if d {
			out = append(out, LinkID(l))
		}
	}
	return out
}

// FailLink marks one directed link as down. Failing a link twice is a
// no-op. It returns an error for out-of-range links, the condition the
// flit engine used to panic on.
func (f *FaultSet) FailLink(l LinkID) error {
	if l < 0 || int(l) >= len(f.down) {
		return fmt.Errorf("topology: failed link %d out of range [0,%d)", l, len(f.down))
	}
	if !f.down[l] {
		f.down[l] = true
		f.num++
	}
	return nil
}

// FailLinks marks every listed directed link as down.
func (f *FaultSet) FailLinks(links []LinkID) error {
	for _, l := range links {
		if err := f.FailLink(l); err != nil {
			return err
		}
	}
	return nil
}

// FailCable fails both directions of the cable between child and its
// parent through up port p — the usual physical failure mode.
func (f *FaultSet) FailCable(child NodeID, p int) error {
	if err := f.FailLink(f.topo.UpLink(child, p)); err != nil {
		return err
	}
	return f.FailLink(f.topo.DownLink(child, p))
}

// failCableIndex fails both directions of the i-th undirected cable.
func (f *FaultSet) failCableIndex(i int) {
	f.FailLink(LinkID(2 * i))   //nolint:errcheck // index is in range
	f.FailLink(LinkID(2*i + 1)) //nolint:errcheck
}

// FailSwitch fails every link incident to switch n, in both
// directions: the node disappears from the fabric. Processing nodes
// are rejected (an endpoint failure is a workload change, not a fabric
// fault).
func (f *FaultSet) FailSwitch(n NodeID) error {
	t := f.topo
	l, _ := t.LevelIndex(n)
	if l == 0 {
		return fmt.Errorf("topology: node %d is a processing node, not a switch", n)
	}
	for p := 0; p < t.NumParents(n); p++ {
		if err := f.FailCable(n, p); err != nil {
			return err
		}
	}
	childUpPort := t.LabelOf(n).Digit(l)
	for c := 0; c < t.NumChildren(n); c++ {
		if err := f.FailCable(t.Child(n, c), childUpPort); err != nil {
			return err
		}
	}
	return nil
}

// RandomCableFaults fails `count` distinct cables (both directions
// each) drawn uniformly from the fabric, deterministically in seed.
func RandomCableFaults(t *Topology, seed int64, count int) (*FaultSet, error) {
	if count < 0 || count > t.NumCables() {
		return nil, fmt.Errorf("topology: cable fault count %d out of [0,%d]", count, t.NumCables())
	}
	f := NewFaultSet(t)
	rng := stats.Stream(seed, 0x0fa17)
	// Partial Fisher-Yates over the cable indices.
	perm := make([]int, t.NumCables())
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < count; i++ {
		j := i + rng.Intn(len(perm)-i)
		perm[i], perm[j] = perm[j], perm[i]
		f.failCableIndex(perm[i])
	}
	return f, nil
}

// RandomCableFaultFraction fails round(fraction · NumCables) distinct
// cables; the failure-sweep experiments express degradation this way.
func RandomCableFaultFraction(t *Topology, seed int64, fraction float64) (*FaultSet, error) {
	if fraction < 0 || fraction > 1 {
		return nil, fmt.Errorf("topology: fault fraction %g out of [0,1]", fraction)
	}
	return RandomCableFaults(t, seed, int(fraction*float64(t.NumCables())+0.5))
}

// RandomSwitchFaults fails `count` distinct switches drawn uniformly
// from levels 1..h, deterministically in seed.
func RandomSwitchFaults(t *Topology, seed int64, count int) (*FaultSet, error) {
	if count < 0 || count > t.NumSwitches() {
		return nil, fmt.Errorf("topology: switch fault count %d out of [0,%d]", count, t.NumSwitches())
	}
	f := NewFaultSet(t)
	rng := stats.Stream(seed, 0x5a1c4)
	perm := make([]int, t.NumSwitches())
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < count; i++ {
		j := i + rng.Intn(len(perm)-i)
		perm[i], perm[j] = perm[j], perm[i]
		if err := f.FailSwitch(NodeID(t.NumProcessors() + perm[i])); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// SwitchDead reports whether every link incident to switch n is down —
// the closure FailSwitch leaves behind, however it was reached (one
// FailSwitch call, or cable faults that happen to cover the switch).
// Diagnostics use it to name the node instead of listing its cables.
// Processing nodes are never "dead" (endpoint failures are workload
// changes, not fabric faults).
func (f *FaultSet) SwitchDead(n NodeID) bool {
	t := f.topo
	l, _ := t.LevelIndex(n)
	if l == 0 || f.num == 0 {
		return false
	}
	for p := 0; p < t.NumParents(n); p++ {
		if !f.down[t.UpLink(n, p)] || !f.down[t.DownLink(n, p)] {
			return false
		}
	}
	childUpPort := t.LabelOf(n).Digit(l)
	for c := 0; c < t.NumChildren(n); c++ {
		ch := t.Child(n, c)
		if !f.down[t.UpLink(ch, childUpPort)] || !f.down[t.DownLink(ch, childUpPort)] {
			return false
		}
	}
	return true
}

// PathAlive reports whether the shortest path from src to dst through
// up-port choices up crosses no failed link. It mirrors the arithmetic
// of AppendPathLinksNCA without materializing the links.
func (f *FaultSet) PathAlive(src, dst int, up []int) bool {
	t := f.topo
	k := t.checkUpChoices(src, dst, up)
	return f.pathAliveNCA(src, dst, k, up)
}

// pathAliveNCA is PathAlive for pre-validated digits (see
// AppendPathLinksNCA for the trust contract).
func (f *FaultSet) pathAliveNCA(src, dst, k int, up []int) bool {
	t := f.topo
	sHigh, dHigh := src, dst
	uLow := 0
	for j := 1; j <= k; j++ {
		upEdge := t.edgeOffset[j-1] + (sHigh*t.wprod[j-1]+uLow)*t.w[j] + up[j-1]
		downEdge := t.edgeOffset[j-1] + (dHigh*t.wprod[j-1]+uLow)*t.w[j] + up[j-1]
		if f.down[2*upEdge] || f.down[2*downEdge+1] {
			return false
		}
		sHigh /= t.m[j]
		dHigh /= t.m[j]
		uLow += up[j-1] * t.wprod[j-1]
	}
	return true
}

// Connected reports whether at least one shortest path between src and
// dst survives the faults. The search walks the up-digit prefix tree
// with pruning: the up link chosen at level j and the down link it
// forces are both determined by the digit prefix u_1..u_j, so a dead
// prefix removes its whole subtree of path indices at once. Self pairs
// are always connected.
func (f *FaultSet) Connected(src, dst int) bool {
	t := f.topo
	k := t.NCALevel(src, dst)
	if k == 0 {
		return true
	}
	if f.num == 0 {
		return true
	}
	var sHigh, dHigh [MaxHeight + 1]int
	sHigh[1], dHigh[1] = src, dst
	for j := 2; j <= k; j++ {
		sHigh[j] = sHigh[j-1] / t.m[j-1]
		dHigh[j] = dHigh[j-1] / t.m[j-1]
	}
	return f.connectedFrom(1, k, 0, &sHigh, &dHigh)
}

func (f *FaultSet) connectedFrom(j, k, uLow int, sHigh, dHigh *[MaxHeight + 1]int) bool {
	t := f.topo
	base := t.edgeOffset[j-1]
	for u := 0; u < t.w[j]; u++ {
		upEdge := base + (sHigh[j]*t.wprod[j-1]+uLow)*t.w[j] + u
		downEdge := base + (dHigh[j]*t.wprod[j-1]+uLow)*t.w[j] + u
		if f.down[2*upEdge] || f.down[2*downEdge+1] {
			continue
		}
		if j == k || f.connectedFrom(j+1, k, uLow+u*t.wprod[j-1], sHigh, dHigh) {
			return true
		}
	}
	return false
}

// AlivePaths returns the number of surviving shortest paths between src
// and dst (the healthy count is NumPathsBetween). Self pairs return 1.
func (f *FaultSet) AlivePaths(src, dst int) int {
	t := f.topo
	k := t.NCALevel(src, dst)
	if k == 0 {
		return 1
	}
	if f.num == 0 {
		return t.WProd(k)
	}
	var sHigh, dHigh [MaxHeight + 1]int
	sHigh[1], dHigh[1] = src, dst
	for j := 2; j <= k; j++ {
		sHigh[j] = sHigh[j-1] / t.m[j-1]
		dHigh[j] = dHigh[j-1] / t.m[j-1]
	}
	return f.alivePathsFrom(1, k, 0, &sHigh, &dHigh)
}

func (f *FaultSet) alivePathsFrom(j, k, uLow int, sHigh, dHigh *[MaxHeight + 1]int) int {
	t := f.topo
	base := t.edgeOffset[j-1]
	n := 0
	for u := 0; u < t.w[j]; u++ {
		upEdge := base + (sHigh[j]*t.wprod[j-1]+uLow)*t.w[j] + u
		downEdge := base + (dHigh[j]*t.wprod[j-1]+uLow)*t.w[j] + u
		if f.down[2*upEdge] || f.down[2*downEdge+1] {
			continue
		}
		if j == k {
			n++
		} else {
			n += f.alivePathsFrom(j+1, k, uLow+u*t.wprod[j-1], sHigh, dHigh)
		}
	}
	return n
}

// AlivePathBits appends the pair's surviving-path bitmap to bits[:0]:
// bit idx is set iff the shortest path with index idx crosses no failed
// link, for all NumPathsBetween indices. One call answers every
// PathAlive query for the pair, and like Connected/AlivePaths the walk
// prunes a whole subtree of path indices at the first dead prefix link
// — this is what lets a routing repair re-rank a damaged pair's
// preference order in O(X) instead of X separate link walks.
func (f *FaultSet) AlivePathBits(src, dst int, bits []uint64) []uint64 {
	t := f.topo
	k := t.NCALevel(src, dst)
	x := t.wprod[k]
	bits = bits[:0]
	for i := 0; i < (x+63)/64; i++ {
		bits = append(bits, 0)
	}
	if k == 0 {
		bits[0] = 1 // self pairs have the single trivial path
		return bits
	}
	if f.num == 0 {
		for i := range bits {
			bits[i] = ^uint64(0)
		}
		if r := x & 63; r != 0 {
			bits[len(bits)-1] = 1<<uint(r) - 1
		}
		return bits
	}
	var sHigh, dHigh [MaxHeight + 1]int
	sHigh[1], dHigh[1] = src, dst
	for j := 2; j <= k; j++ {
		sHigh[j] = sHigh[j-1] / t.m[j-1]
		dHigh[j] = dHigh[j-1] / t.m[j-1]
	}
	f.alivePathBitsFrom(1, k, 0, 0, x, &sHigh, &dHigh, bits)
	return bits
}

// alivePathBitsFrom sets the bit of every surviving path index below
// the digit prefix u_1..u_{j-1}. idx carries the prefix's contribution
// to the path index (u_1 is the most significant digit, mirroring the
// decode in AppendPathSetLinks); stride is the index weight of the
// digit chosen at this level before division, i.e. Π_{i=j..k} w_i.
func (f *FaultSet) alivePathBitsFrom(j, k, uLow, idx, stride int, sHigh, dHigh *[MaxHeight + 1]int, bits []uint64) {
	t := f.topo
	base := t.edgeOffset[j-1]
	stride /= t.w[j]
	for u := 0; u < t.w[j]; u++ {
		upEdge := base + (sHigh[j]*t.wprod[j-1]+uLow)*t.w[j] + u
		downEdge := base + (dHigh[j]*t.wprod[j-1]+uLow)*t.w[j] + u
		if f.down[2*upEdge] || f.down[2*downEdge+1] {
			continue
		}
		if j == k {
			bits[(idx+u)>>6] |= 1 << (uint(idx+u) & 63)
		} else {
			f.alivePathBitsFrom(j+1, k, uLow+u*t.wprod[j-1], idx+u*stride, stride, sHigh, dHigh, bits)
		}
	}
}

// DisconnectedFraction returns the fraction of ordered distinct SD
// pairs with no surviving shortest path — the traffic a repaired
// oblivious routing must report as undeliverable.
func (f *FaultSet) DisconnectedFraction() float64 {
	n := f.topo.NumProcessors()
	if n < 2 || f.num == 0 {
		return 0
	}
	bad := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst && !f.Connected(src, dst) {
				bad++
			}
		}
	}
	return float64(bad) / float64(n*(n-1))
}

// String summarizes the fault set.
func (f *FaultSet) String() string {
	return fmt.Sprintf("faults(%d/%d links down)", f.num, len(f.down))
}
