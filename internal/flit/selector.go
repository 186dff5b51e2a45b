package flit

import (
	"fmt"

	"xgftsim/internal/topology"
)

// OutputSelector names the engine's per-hop route decision discipline.
// Every packet movement — out of the injection queue and at every
// switch — goes through exactly one hopSelector implementation, so the
// three regimes differ only in how a hop is chosen, never in the
// event machinery around it.
type OutputSelector int

const (
	// SelectOblivious walks the source route precomputed at injection
	// (the paper's K-limited multipath routing): the per-hop output
	// port is fixed before the packet enters the network.
	SelectOblivious OutputSelector = iota
	// SelectAdaptive is minimal adaptive routing (the comparator of
	// Gomez et al., IPDPS 2007): on the way up every switch sends the
	// packet to its least-occupied upward output, ignoring the K-limit
	// entirely, and the forced downward path is followed from the
	// nearest common ancestor.
	SelectAdaptive
	// SelectAdaptiveK steers by VC-queue occupancy like SelectAdaptive,
	// but only among up-ports that lie on one of the pair's K compiled
	// paths: the packet carries a bitmask over its path-index set,
	// narrowed at every upward hop to the paths crossing the chosen
	// port, so adaptivity never escapes the K-limited path budget.
	SelectAdaptiveK
)

func (s OutputSelector) String() string {
	switch s {
	case SelectOblivious:
		return "oblivious"
	case SelectAdaptive:
		return "adaptive"
	case SelectAdaptiveK:
		return "adaptive-k"
	}
	return fmt.Sprintf("OutputSelector(%d)", int(s))
}

// ParseOutputSelector resolves a selector name as printed by String.
func ParseOutputSelector(name string) (OutputSelector, error) {
	switch name {
	case "oblivious":
		return SelectOblivious, nil
	case "adaptive":
		return SelectAdaptive, nil
	case "adaptive-k", "adaptivek":
		return SelectAdaptiveK, nil
	}
	return 0, fmt.Errorf("flit: unknown output selector %q (want oblivious, adaptive or adaptive-k)", name)
}

// VCScheme selects how messages are assigned a virtual channel at
// injection. The assignment is fixed for the message's lifetime; with
// one VC (the paper's setup) every scheme degenerates to VC 0.
type VCScheme int

const (
	// VCRoundRobin rotates per source node, spreading consecutive
	// messages across channels regardless of destination (the historic
	// default).
	VCRoundRobin VCScheme = iota
	// VCDestSubtree keys the channel on the destination's top-level
	// subtree, so traffic crossing into different spines never shares a
	// VC queue — the "VC per destination subtree" scheme.
	VCDestSubtree
	// VCDownDigit keys the channel on the destination's lowest address
	// digit (its leaf-switch down-port), a VOQ-flavored scheme that
	// separates flows by their final output even within one subtree.
	VCDownDigit
)

func (s VCScheme) String() string {
	switch s {
	case VCRoundRobin:
		return "rr-injection"
	case VCDestSubtree:
		return "dest-subtree"
	case VCDownDigit:
		return "down-digit"
	}
	return fmt.Sprintf("VCScheme(%d)", int(s))
}

// ParseVCScheme resolves a VC scheme name as printed by String.
func ParseVCScheme(name string) (VCScheme, error) {
	switch name {
	case "rr-injection", "rr":
		return VCRoundRobin, nil
	case "dest-subtree", "subtree":
		return VCDestSubtree, nil
	case "down-digit", "voq":
		return VCDownDigit, nil
	}
	return 0, fmt.Errorf("flit: unknown VC scheme %q (want rr-injection, dest-subtree or down-digit)", name)
}

// hopStatus classifies one output-selection outcome.
type hopStatus uint8

const (
	// hopOK: the choice carries the link to cross next.
	hopOK hopStatus = iota
	// hopBlocked: every admissible next queue is full right now; the
	// caller's retry machinery fires when a slot frees.
	hopBlocked
	// hopDead: no admissible next link will ever transmit (a failed
	// forced downward link, or every admissible up-port failed). The
	// packet is permanently unroutable from here and must be dropped,
	// not retried.
	hopDead
)

// hopChoice is one per-hop output selection.
type hopChoice struct {
	link   int32  // link to cross next (hopOK only)
	mask   uint64 // narrowed path mask, committed to the packet (adaptive-K up-hops)
	dead   int32  // exemplar dead link for the diagnosis (hopDead only), or -1
	status hopStatus
	up     bool // the choice was among up-ports (rotation advances on commit)
}

// hopSelector is the per-hop output-selection interface. next inspects
// the network state without mutating it, so the engine may probe
// speculatively (e.g. from tryStart's VC arbitration loop); commit is
// called exactly once per committed send and applies the selector's
// side effects — advancing the up-port rotation and narrowing the
// packet's path mask. Implementations are stateless values; all state
// lives in the engine.
type hopSelector interface {
	next(e *engine, x topology.NodeID, p *packet, hopIdx int, vc int8) hopChoice
	commit(e *engine, x topology.NodeID, p *packet, c hopChoice)
}

// obliviousSel walks the packet's precomputed source route: the output
// port at hop i is route[i], and the only gate is downstream buffer
// space. It never reports hopDead — a failed link on an oblivious
// route stalls the flow (head-of-line backpressure then spreads),
// which is exactly the degraded behavior the failure experiments
// measure; RepairRoutes is the oblivious answer to faults.
type obliviousSel struct{}

func (obliviousSel) next(e *engine, x topology.NodeID, p *packet, hopIdx int, vc int8) hopChoice {
	l := e.outLinks[x][p.route[hopIdx]]
	if e.occ[e.qid(l, vc)] >= e.cfg.BufferPackets {
		return hopChoice{status: hopBlocked}
	}
	return hopChoice{link: l, status: hopOK}
}

func (obliviousSel) commit(*engine, topology.NodeID, *packet, hopChoice) {}

// forcedDown picks the unique downward hop once dst lies in x's
// subtree: the child digit at x's level addresses the subtree copy
// holding dst. Shared by both adaptive selectors — below the nearest
// common ancestor there is exactly one minimal continuation, so a
// failed link here is a permanent loss (hopDead), not a detour.
func (e *engine) forcedDown(x topology.NodeID, dst int, vc int8) hopChoice {
	l := int(e.nodeLevel[x])
	digit := dst / e.mLow[l-1] % e.mArr[l]
	port := digit
	if l < e.h {
		port += e.w[l+1]
	}
	next := e.outLinks[x][port]
	if e.failed[next] {
		return hopChoice{status: hopDead, dead: next}
	}
	if e.occ[e.qid(next, vc)] >= e.cfg.BufferPackets {
		return hopChoice{status: hopBlocked}
	}
	return hopChoice{link: next, status: hopOK}
}

// adaptiveSel is full minimal-adaptive routing: any upward output
// leads to a nearest common ancestor, so pick the least occupied
// non-failed one (ties resolve in rotation order from the per-node
// pointer, advanced only on commit).
type adaptiveSel struct{}

func (adaptiveSel) next(e *engine, x topology.NodeID, p *packet, _ int, vc int8) hopChoice {
	dst := int(p.dst)
	l := int(e.nodeLevel[x])
	if l > 0 && dst/e.mLow[l] == int(e.subtreeIdx[x]) {
		return e.forcedDown(x, dst, vc)
	}
	ups := e.w[l+1]
	start := int(e.adaptRR[x])
	best, bestOcc := int32(-1), e.cfg.BufferPackets
	dead, live := int32(-1), false
	for i := 0; i < ups; i++ {
		link := e.outLinks[x][(start+i)%ups]
		if e.failed[link] {
			if dead < 0 {
				dead = link
			}
			continue // adaptivity routes around failed upward links
		}
		live = true
		if o := e.occ[e.qid(link, vc)]; o < bestOcc {
			best, bestOcc = link, o
		}
	}
	if !live {
		return hopChoice{status: hopDead, dead: dead}
	}
	if best < 0 {
		return hopChoice{status: hopBlocked}
	}
	return hopChoice{link: best, status: hopOK, up: true}
}

func (adaptiveSel) commit(e *engine, x topology.NodeID, _ *packet, c hopChoice) {
	if !c.up {
		return
	}
	l := int(e.nodeLevel[x])
	e.adaptRR[x] = int32((int(e.adaptRR[x]) + 1) % e.w[l+1])
}

// adaptiveKSel restricts the adaptive comparator to the packet's
// surviving compiled paths. The packet's mask has bit i set while path
// paths.idxs[i] is still reachable; an upward hop at level l intersects
// it with the pair's precomputed per-port masks at that level (see
// pathEntry), ranks only ports with a non-empty intersection, and (on
// commit) narrows the mask to the chosen port's paths.
type adaptiveKSel struct{}

func (adaptiveKSel) next(e *engine, x topology.NodeID, p *packet, _ int, vc int8) hopChoice {
	dst := int(p.dst)
	l := int(e.nodeLevel[x])
	if l > 0 && dst/e.mLow[l] == int(e.subtreeIdx[x]) {
		return e.forcedDown(x, dst, vc)
	}
	ports := p.paths.ports[l]
	ups := len(ports)
	start := int(e.adaptRR[x])
	best, bestOcc := int32(-1), e.cfg.BufferPackets
	var bestMask uint64
	dead, live := int32(-1), false
	for i := 0; i < ups; i++ {
		pt := start + i
		if pt >= ups {
			pt -= ups
		}
		pm := ports[pt] & p.mask
		if pm == 0 {
			continue // no surviving compiled path crosses this parent
		}
		link := e.outLinks[x][pt]
		if e.failed[link] {
			if dead < 0 {
				dead = link
			}
			continue
		}
		live = true
		if o := e.occ[e.qid(link, vc)]; o < bestOcc {
			best, bestOcc, bestMask = link, o, pm
		}
	}
	if !live {
		return hopChoice{status: hopDead, dead: dead}
	}
	if best < 0 {
		return hopChoice{status: hopBlocked}
	}
	return hopChoice{link: best, mask: bestMask, status: hopOK, up: true}
}

func (adaptiveKSel) commit(e *engine, x topology.NodeID, p *packet, c hopChoice) {
	if !c.up {
		return
	}
	l := int(e.nodeLevel[x])
	e.adaptRR[x] = int32((int(e.adaptRR[x]) + 1) % e.w[l+1])
	p.mask = c.mask
}

// fullMask covers n path indices (n <= 64, enforced by withDefaults).
func fullMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}
