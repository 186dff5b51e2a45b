package flit

import (
	"fmt"
	"math/bits"
	"math/rand"

	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
)

// The engine is a discrete-event simulator of output-queued virtual
// cut-through switches. Every directed link carries V virtual channels
// (VCs); each (link, VC) pair has a FIFO packet queue at the link's
// sending side, and a packet always sits in the queue of the next link
// it will traverse, on the VC it was assigned at injection.
// Transmitting a packet over link L requires (a) L idle, (b) the
// packet's head to have arrived (cut-through), and (c) a free slot in
// the (next link, same VC) queue — the paper's "a packet is blocked if
// the destination port does not have available buffer space", enforced
// with credit-style slot reservations. Slots are reserved when a
// transmission toward the queue starts and released when the packet's
// tail later leaves the queue, so backpressure propagates exactly as
// credits do. The physical link arbitrates round-robin across VCs, so
// a blocked VC does not idle the wire if another VC can proceed.
//
// Scheduling uses a timing wheel: every network event lands at most
// max(packet length, router delay + 1) cycles in the future, so a
// fixed ring of buckets gives O(1) push and pop with FIFO-per-cycle
// determinism. Only Poisson injection events, whose horizon is
// unbounded, live in a small binary heap. Packets are arena-allocated
// and referenced by index, keeping events pointer-free.
//
// A source's backlog is a FIFO of messages, not packets: a message
// holds what its packets share (route or path set, destination, VC),
// and its head packet is built only when it wins a first-link slot.
// Every random draw of a message (destination, route, VC) still happens
// at injection, so the run is unchanged, but the packet arena is
// bounded by what the fabric's buffers hold rather than by the backlog
// a saturated source accumulates over the window.

type message struct {
	genTime     int64
	route       []int      // oblivious: the source route all its packets take
	paths       *pathEntry // adaptive-K: the pair's compiled paths
	dst         int32
	packetsLeft int32 // packets not yet delivered or discarded
	unsent      int32 // packets still in the source's injection queue
	vc          int8
	measured    bool
	dropped     bool // a packet was discarded as permanently unroutable
}

type packet struct {
	msg   int32      // message arena index
	route []int      // output port at the i-th node on the path; nil => adaptive
	paths *pathEntry // adaptive-K: the pair's compiled paths (shared, immutable)
	mask  uint64     // adaptive-K: bit i set while path paths.idxs[i] is still reachable
	hop   int        // index into route of the link queue the packet is in
	dst   int32      // destination processor
	vc    int8       // virtual channel, fixed for the packet's lifetime
	flits int
}

type evKind uint8

const (
	evArrive  evKind = iota // packet joins queue a (a = link*V + vc)
	evDeliver               // packet tail ejected at destination
	evFree                  // queue a's transmission drained: link idle, slot back
)

// wheelEvent is a pointer-free scheduled action.
type wheelEvent struct {
	kind evKind
	a    int32 // queue id (link*V + vc)
	pkt  int32 // packet arena index, or -1
}

// injEvent schedules the next Poisson message of one node.
type injEvent struct {
	time int64
	node int32
}

// injHeap is a typed binary min-heap ordered by (time, node). The
// container/heap version boxed every event through `any` in Push/Pop,
// allocating on each of the millions of steady-state injections; the
// explicit sift-up/down below keeps the slice's backing array and
// allocates nothing once it has reached its high-water capacity.
type injHeap []injEvent

func (h injHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].node < h[j].node
}

func (h *injHeap) push(e injEvent) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *injHeap) pop() injEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.less(r, c) {
			c = r
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

type engine struct {
	cfg  Config
	topo *topology.Topology
	rng  *rand.Rand
	vcs  int

	// Per-hop output selection (see selector.go): sel names the
	// discipline, hop implements it, vcScheme maps destinations to
	// virtual channels at injection.
	sel      OutputSelector
	hop      hopSelector
	vcScheme VCScheme

	// Timing wheel. All network events land within wheelSpan cycles,
	// so bucket (t % wheelSpan) is unambiguous.
	wheel     [][]wheelEvent
	wheelSpan int64
	pending   int // events currently in the wheel

	inj injHeap

	// Packet and message arenas. Messages are referenced by index so a
	// steady-state injection reuses a freed slot instead of allocating.
	// headPkt is the scratch in which drainInjection builds a message's
	// next packet before it knows whether the packet can leave. It is
	// built for message headMsg and kept across blocked retries; headMsg
	// is -1 once the packet has left (hop 0 and flits never change).
	packets []packet
	freePkt []int32
	msgs    []message
	freeMsg []int32
	headPkt packet
	headMsg int32

	// Per queue (link*V + vc): output queue state at the sending side.
	// Queue q is a ring over qBuf[q*B : (q+1)*B] (B = BufferPackets,
	// which occ caps every queue at) holding qLen[q] packets from
	// qHead[q].
	qBuf  []int32
	qHead []int32
	qLen  []int32
	occ   []int // reserved slots (inbound + queued + draining tails)
	bufB  int32 // BufferPackets

	// Per physical link.
	linkFree   []int64
	linkRR     []int32   // VC arbitration pointer
	rrIdx      []int     // feeder arbitration pointer
	feeders    [][]int32 // upstream links whose packets can enter this link's queues
	failed     []bool    // down for the whole run
	linkQueued []int32   // packets queued over all of the link's VCs

	// queuedIn has one bit per inbound link of every node, set while
	// the link holds a queued packet: node n's inbound links (in
	// feeders order) own the words from inOff[n], and link l's bit is
	// inBit[l] of word inWord[l]. A freed slot probes only the set bits.
	queuedIn []uint64
	inOff    []int32
	inWord   []int32
	inBit    []uint64

	// Link endpoint tables (LinkEndpoints is arithmetic-heavy).
	linkSrc []topology.NodeID
	linkDst []topology.NodeID

	// Per node.
	outLinks    [][]int32 // outgoing directed link per port number
	injQueue    [][]int32 // node n's message backlog is injQueue[n][injHead[n]:]
	injHead     []int     // see pushInjection for how the consumed prefix is reclaimed
	nextArrival []float64 // fractional Poisson clocks
	rrVC        []int8    // per-node VC assignment pointer

	// Adaptive-routing tables (see the selectors in selector.go).
	nodeLevel  []int8
	subtreeIdx []int32              // height-l subtree copy a switch roots
	adaptRR    []int32              // per-node up-port rotation for tie-breaking
	mLow       []int                // mLow[l] = Π_{i=1..l} m_i
	mArr       []int                // mArr[l] = m_l
	w          []int                // w[l] = w_l (up-port count of a level l-1 node)
	h          int                  // tree height
	pathIdx    map[int64]*pathEntry // adaptive-K engine-local path cache
	vcSubDiv   int                  // processors per top-level subtree (VCDestSubtree)

	// Routing caches. The round-robin pointers live in a dense array
	// keyed by pair id for topologies up to rrDenseLimit pairs (a
	// per-packet array load instead of a map probe); the map is the
	// fallback above the threshold.
	routes      map[int64][][]int // SD pair -> port routes per path
	rrPathDense []int32           // SD pair -> round-robin pointer, or
	rrPath      map[int64]int     // ... the sparse fallback

	// Workload parameters.
	numProc   int
	msgRate   float64 // messages per cycle per node
	burstMean float64 // mean geometric burst length (1 = plain Poisson)
	endTime   int64

	// Event-loop state (split across start/loop/result so tests can
	// pin the steady-state loop's allocation behavior mid-run).
	now       int64
	evScratch []wheelEvent

	// Statistics.
	warmEnd        int64
	flitsEjected   int64
	ejectedPer     []int64 // measured ejected flits per destination
	delay          stats.Accumulator
	batches        []stats.Accumulator // batch means over the window
	batchLen       int64
	hist           *stats.Histogram
	msgsGen        int64
	msgsDone       int64
	msgsUnroutable int64
	pktsInFlight   int64
	vcStalls       int64   // VC-blocked transmission skips in tryStart
	injHeapHW      int     // injection-heap high-water depth
	linkStarts     []int64 // transmissions started per physical link
	unroutableDiag string  // first permanently-unroutable drop, for Result

	// Watchdog state (see run).
	wedged    bool
	wedgedAt  int64
	wedgeDiag string
}

func newEngine(cfg Config) *engine {
	t := cfg.Routing.Topology()
	e := &engine{
		cfg:     cfg,
		topo:    t,
		rng:     stats.Stream(cfg.Seed, 0),
		vcs:     cfg.VirtualChannels,
		numProc: t.NumProcessors(),
		routes:  make(map[int64][][]int),
		headPkt: packet{flits: cfg.FlitsPerPacket},
		headMsg: -1,
	}
	if nn := e.numProc * e.numProc; nn <= rrDenseLimit {
		e.rrPathDense = make([]int32, nn)
	} else {
		e.rrPath = make(map[int64]int)
	}
	span := int64(cfg.FlitsPerPacket)
	if alt := cfg.RouterDelay + 1; alt > span {
		span = alt
	}
	e.wheelSpan = span + 1
	e.wheel = make([][]wheelEvent, e.wheelSpan)
	nl := t.NumLinks()
	nq := nl * e.vcs
	e.bufB = int32(cfg.BufferPackets)
	e.qBuf = make([]int32, nq*cfg.BufferPackets)
	e.qHead = make([]int32, nq)
	e.qLen = make([]int32, nq)
	e.occ = make([]int, nq)
	e.linkQueued = make([]int32, nl)
	e.linkFree = make([]int64, nl)
	e.linkRR = make([]int32, nl)
	e.rrIdx = make([]int, nl)
	e.feeders = make([][]int32, nl)
	e.linkSrc = make([]topology.NodeID, nl)
	e.linkDst = make([]topology.NodeID, nl)
	for l := 0; l < nl; l++ {
		e.linkSrc[l], e.linkDst[l] = t.LinkEndpoints(topology.LinkID(l))
	}
	nn := t.NumNodes()
	e.outLinks = make([][]int32, nn)
	inbound := make([][]int32, nn) // inbound transit links per node
	for n := topology.NodeID(0); int(n) < nn; n++ {
		level, _ := t.LevelIndex(n)
		up := t.NumParents(n)
		down := t.NumChildren(n)
		out := make([]int32, up+down)
		for p := 0; p < up; p++ {
			out[p] = int32(t.UpLink(n, p))
			inbound[n] = append(inbound[n], int32(t.DownLink(n, p)))
		}
		for c := 0; c < down; c++ {
			child := t.Child(n, c)
			childUpPort := t.LabelOf(n).Digit(level)
			out[t.DownPortTo(n, c)] = int32(t.DownLink(child, childUpPort))
			inbound[n] = append(inbound[n], int32(t.UpLink(child, childUpPort)))
		}
		e.outLinks[n] = out
	}
	// A link's queues are fed by the transit links arriving at its
	// source node; packets never transit through processing nodes
	// (their queues are fed by injection alone).
	for l := 0; l < nl; l++ {
		if src := e.linkSrc[l]; int(src) >= e.numProc { // switch-sourced
			e.feeders[l] = inbound[src]
		}
	}
	e.inOff = make([]int32, nn+1)
	for n := 0; n < nn; n++ {
		e.inOff[n+1] = e.inOff[n] + int32((len(inbound[n])+63)/64)
	}
	e.queuedIn = make([]uint64, e.inOff[nn])
	e.inWord = make([]int32, nl)
	e.inBit = make([]uint64, nl)
	for n, in := range inbound {
		for i, l := range in {
			e.inWord[l] = e.inOff[n] + int32(i/64)
			e.inBit[l] = 1 << uint(i%64)
		}
	}
	e.nodeLevel = make([]int8, nn)
	e.subtreeIdx = make([]int32, nn)
	e.adaptRR = make([]int32, nn)
	e.h = t.H()
	e.mLow = make([]int, e.h+1)
	e.mArr = make([]int, e.h+1)
	e.w = make([]int, e.h+1)
	e.mLow[0] = 1
	for l := 1; l <= e.h; l++ {
		e.mArr[l] = t.M(l)
		e.mLow[l] = e.mLow[l-1] * e.mArr[l]
		e.w[l] = t.W(l)
	}
	e.vcSubDiv = e.mLow[e.h-1]
	e.sel = cfg.Selector
	e.vcScheme = cfg.VCScheme
	e.burstMean = cfg.BurstMean
	switch cfg.Selector {
	case SelectAdaptive:
		e.hop = adaptiveSel{}
	case SelectAdaptiveK:
		e.hop = adaptiveKSel{}
		if cfg.Routes == nil {
			e.pathIdx = make(map[int64]*pathEntry)
		}
	default:
		e.hop = obliviousSel{}
	}
	e.linkStarts = make([]int64, nl)
	for n := topology.NodeID(0); int(n) < nn; n++ {
		l, idx := t.LevelIndex(n)
		e.nodeLevel[n] = int8(l)
		e.subtreeIdx[n] = int32(idx / t.WProd(l))
	}
	e.injQueue = make([][]int32, e.numProc)
	e.injHead = make([]int, e.numProc)
	e.nextArrival = make([]float64, e.numProc)
	e.rrVC = make([]int8, e.numProc)
	flitsPerMsg := float64(cfg.FlitsPerPacket * cfg.PacketsPerMessage)
	e.msgRate = cfg.OfferedLoad * float64(t.W(1)) / flitsPerMsg
	e.warmEnd = cfg.WarmupCycles
	e.endTime = cfg.WarmupCycles + cfg.MeasureCycles
	if cfg.DelayHistogram {
		e.hist = stats.NewHistogram(4096, 4)
	}
	// Batch means: 10 equal sub-windows of the measurement phase.
	const numBatches = 10
	e.batches = make([]stats.Accumulator, numBatches)
	e.batchLen = (cfg.MeasureCycles + numBatches - 1) / numBatches
	e.ejectedPer = make([]int64, e.numProc)
	// cfg.faults is the validated merge of Faults + FailedLinks
	// (withDefaults rejects out-of-range links with an error, the
	// condition this used to panic on).
	e.failed = make([]bool, nl)
	if cfg.faults != nil {
		for _, l := range cfg.faults.DownLinks() {
			e.failed[l] = true
		}
	}
	return e
}

// rrDenseLimit bounds the dense round-robin table: up to 2^20 pairs
// (4 MiB of pointers) buys O(1) per-packet path rotation; larger
// fabrics fall back to the sparse map.
const rrDenseLimit = 1 << 20

// qid maps (link, vc) to its queue index.
func (e *engine) qid(l int32, vc int8) int32 { return l*int32(e.vcs) + int32(vc) }

// qlink recovers the physical link of a queue id.
func (e *engine) qlink(q int32) int32 { return q / int32(e.vcs) }

// qFront is the packet at the head of non-empty queue q.
func (e *engine) qFront(q int32) int32 { return e.qBuf[q*e.bufB+e.qHead[q]] }

// enqueue appends packet idx to queue q of link l. The caller has
// reserved the slot (occ), so the ring cannot overflow.
func (e *engine) enqueue(q, l, idx int32) {
	pos := e.qHead[q] + e.qLen[q]
	if pos >= e.bufB {
		pos -= e.bufB
	}
	e.qBuf[q*e.bufB+pos] = idx
	e.qLen[q]++
	if e.linkQueued[l]++; e.linkQueued[l] == 1 {
		e.queuedIn[e.inWord[l]] |= e.inBit[l]
	}
}

// dequeue pops the head of non-empty queue q of link l.
func (e *engine) dequeue(q, l int32) {
	if e.qHead[q]++; e.qHead[q] == e.bufB {
		e.qHead[q] = 0
	}
	e.qLen[q]--
	if e.linkQueued[l]--; e.linkQueued[l] == 0 {
		e.queuedIn[e.inWord[l]] &^= e.inBit[l]
	}
}

// nextQueued returns the first position >= j among the inbound links
// whose bits start at word off that holds a queued packet, or a value
// >= hi when there is none below hi.
func (e *engine) nextQueued(off int32, j, hi int) int {
	for j < hi {
		if w := e.queuedIn[int(off)+j>>6] >> uint(j&63); w != 0 {
			return j + bits.TrailingZeros64(w)
		}
		j = (j | 63) + 1
	}
	return hi
}

// schedule places a network event delta cycles ahead (0 < delta <
// wheelSpan).
func (e *engine) schedule(now, at int64, kind evKind, q int32, pkt int32) {
	if at <= now || at-now >= e.wheelSpan {
		panic("flit: event outside wheel horizon") // invariant guard
	}
	b := at % e.wheelSpan
	e.wheel[b] = append(e.wheel[b], wheelEvent{kind: kind, a: q, pkt: pkt})
	e.pending++
}

// allocPacket takes a slot from the arena.
func (e *engine) allocPacket(p packet) int32 {
	if n := len(e.freePkt); n > 0 {
		idx := e.freePkt[n-1]
		e.freePkt = e.freePkt[:n-1]
		e.packets[idx] = p
		return idx
	}
	e.packets = append(e.packets, p)
	return int32(len(e.packets) - 1)
}

// allocMessage takes a slot from the message arena; the slot returns
// to the free list when the last packet of the message is delivered.
func (e *engine) allocMessage(m message) int32 {
	if n := len(e.freeMsg); n > 0 {
		idx := e.freeMsg[n-1]
		e.freeMsg = e.freeMsg[:n-1]
		e.msgs[idx] = m
		return idx
	}
	e.msgs = append(e.msgs, m)
	return int32(len(e.msgs) - 1)
}

// routesFor lazily builds and caches the port routes of an SD pair,
// consulting the shared sweep-level table when one is configured. The
// route source is the repaired routing when RepairRoutes derived one,
// so the expanded routes avoid every failed link; disconnected pairs
// get an empty route set. pair is the caller's src·N + dst key (hoisted
// so injection computes it once for the route lookup and the path
// rotation).
func (e *engine) routesFor(pair int64, src, dst int) [][]int {
	if e.cfg.Routes != nil {
		return e.cfg.Routes.RoutesFor(src, dst)
	}
	if r, ok := e.routes[pair]; ok {
		return r
	}
	var r [][]int
	if e.cfg.repaired != nil {
		r = e.cfg.repaired.PortRoutes(src, dst)
	} else {
		r = e.cfg.Routing.PortRoutes(src, dst)
	}
	e.routes[pair] = r
	return r
}

// pathsFor returns the pair's compiled paths for the adaptive-K
// selector, consulting the shared sweep-level table when one is
// configured. The healthy path set is always used — adaptive-K steers
// around failures at run time, not by reselection. The returned entry
// is cached and immutable; packets alias it without copying.
func (e *engine) pathsFor(pair int64, src, dst int) *pathEntry {
	if e.cfg.Routes != nil {
		return e.cfg.Routes.entry(src, dst)
	}
	if ent, ok := e.pathIdx[pair]; ok {
		return ent
	}
	ent := newPathEntry(e.topo, pathIndices(e.cfg.Routing, src, dst), e.topo.NCALevel(src, dst))
	e.pathIdx[pair] = ent
	return ent
}

// pickRoute applies the path policy to a non-empty route set.
func (e *engine) pickRoute(routes [][]int, pair int64) []int {
	if len(routes) == 1 {
		return routes[0]
	}
	switch e.cfg.PathPolicy {
	case RandomPath:
		return routes[e.rng.Intn(len(routes))]
	default:
		if e.rrPathDense != nil {
			i := int(e.rrPathDense[pair])
			e.rrPathDense[pair] = int32((i + 1) % len(routes))
			return routes[i]
		}
		i := e.rrPath[pair]
		e.rrPath[pair] = (i + 1) % len(routes)
		return routes[i]
	}
}

// scheduleArrival advances node's Poisson clock and queues the next
// injection event, unless it falls beyond the simulation end. Under
// bursty arrivals (BurstMean > 1) the epochs are spaced BurstMean
// times further apart; each epoch then emits a geometric burst of
// messages with the same mean, so the offered load is preserved.
func (e *engine) scheduleArrival(node int, now int64) {
	e.nextArrival[node] += e.rng.ExpFloat64() * e.burstMean / e.msgRate
	t := int64(e.nextArrival[node]) + 1
	if t < now {
		t = now // high-rate clocks may floor into the past
	}
	if t >= e.endTime {
		return
	}
	e.inj.push(injEvent{time: t, node: int32(node)})
	if n := len(e.inj); n > e.injHeapHW {
		e.injHeapHW = n
	}
}

// inject handles one arrival epoch at node: a single message under
// plain Poisson arrivals, or a geometric burst of them under bursty
// arrivals (the burst-length draw keeps the RNG untouched when
// BurstMean is 1, so default runs are bit-identical to the pre-burst
// engine).
func (e *engine) inject(node int, now int64) {
	n := 1
	if e.burstMean > 1 {
		// Geometric with mean BurstMean: continue with p = 1 - 1/mean.
		p := 1 - 1/e.burstMean
		for e.rng.Float64() < p {
			n++
		}
	}
	for ; n > 0; n-- {
		e.injectOne(node, now)
	}
}

// vcFor assigns the message's virtual channel per the configured
// scheme. With one VC every scheme returns 0 (and the round-robin
// pointer arithmetic is a no-op).
func (e *engine) vcFor(node, dst int) int8 {
	switch e.vcScheme {
	case VCDestSubtree:
		return int8(dst / e.vcSubDiv % e.vcs)
	case VCDownDigit:
		return int8(dst % e.mArr[1] % e.vcs)
	}
	vc := e.rrVC[node]
	e.rrVC[node] = int8((int(vc) + 1) % e.vcs)
	return vc
}

// injectOne creates one message at node and appends it to the node's
// backlog, then moves as many packets as fit into the first link's
// queue.
func (e *engine) injectOne(node int, now int64) {
	dst := e.cfg.Pattern.Dest(node, e.rng)
	if dst == node {
		return // pattern chose a self-destination; nothing to send
	}
	var route []int
	var paths *pathEntry
	switch e.sel {
	case SelectOblivious:
		pair := int64(node)*int64(e.numProc) + int64(dst)
		routes := e.routesFor(pair, node, dst)
		if len(routes) == 0 {
			// Repaired routing found the pair disconnected: the message
			// is undeliverable by any minimal route, so drop it at the
			// source instead of wedging the injection queue.
			e.msgsUnroutable++
			return
		}
		route = e.pickRoute(routes, pair)
	case SelectAdaptiveK:
		pair := int64(node)*int64(e.numProc) + int64(dst)
		paths = e.pathsFor(pair, node, dst)
		if len(paths.idxs) == 0 {
			e.msgsUnroutable++
			return
		}
	}
	vc := e.vcFor(node, dst)
	measured := now >= e.warmEnd && now < e.endTime
	k := int32(e.cfg.PacketsPerMessage)
	msg := e.allocMessage(message{
		genTime:     now,
		route:       route,
		paths:       paths,
		dst:         int32(dst),
		packetsLeft: k,
		unsent:      k,
		vc:          vc,
		measured:    measured,
	})
	if measured {
		e.msgsGen++
	}
	e.pktsInFlight += int64(k)
	e.pushInjection(node, msg)
	e.drainInjection(node, now)
}

// pushInjection appends message msg to node's backlog. A saturated
// source rarely drains to empty, so before the slice would grow it
// reclaims the consumed prefix once that is at least half the slice:
// the capacity then tracks the live backlog (at most about four times
// its peak) and each message is copied O(1) times amortized.
func (e *engine) pushInjection(node int, msg int32) {
	q, h := e.injQueue[node], e.injHead[node]
	if len(q) == cap(q) && 2*h >= len(q) {
		q = q[:copy(q, q[h:])]
		e.injHead[node] = 0
	}
	e.injQueue[node] = append(q, msg)
}

// drainInjection moves backlog packets into their first link queue
// while slots are available. The head message's next packet is built in
// headPkt and takes an arena slot only once it leaves. headMsg never
// names a freed (and possibly reused) message slot: a message is freed
// only after its last packet has left, which resets headMsg. Every
// movement goes through the configured hop selector; a hopDead packet
// (its forced first link is down) is discarded so it cannot wedge the
// queue behind it.
func (e *engine) drainInjection(node int, now int64) {
	for e.injHead[node] < len(e.injQueue[node]) {
		q, h := e.injQueue[node], e.injHead[node]
		mi := q[h]
		m := &e.msgs[mi]
		p := &e.headPkt
		if e.headMsg != mi {
			e.headMsg = mi
			p.msg, p.route, p.paths, p.dst, p.vc = mi, m.route, m.paths, m.dst, m.vc
			if m.paths != nil {
				p.mask = fullMask(len(m.paths.idxs))
			}
		}
		c := e.hop.next(e, topology.NodeID(node), p, 0, p.vc)
		if c.status == hopBlocked {
			return
		}
		e.headMsg = -1
		if m.unsent--; m.unsent == 0 {
			if h+1 == len(q) {
				e.injQueue[node], e.injHead[node] = q[:0], 0
			} else {
				e.injHead[node] = h + 1
			}
		}
		if c.status == hopDead {
			e.dropPacket(mi, c.dead)
			continue
		}
		e.hop.commit(e, topology.NodeID(node), p, c)
		idx := e.allocPacket(*p)
		qi := e.qid(c.link, p.vc)
		e.occ[qi]++
		e.enqueue(qi, c.link, idx)
		e.tryStart(c.link, now)
	}
}

// dropPacket accounts one permanently-unroutable packet of message mi:
// the message counts once in MsgsUnroutable, and the first drop of the
// run records a diagnosis naming the dead link for
// Result.WedgeDiagnosis.
func (e *engine) dropPacket(mi int32, dead int32) {
	e.pktsInFlight--
	m := &e.msgs[mi]
	if !m.dropped {
		m.dropped = true
		e.msgsUnroutable++
		if e.unroutableDiag == "" && dead >= 0 {
			e.unroutableDiag = fmt.Sprintf("messages for node %d dropped as unroutable: %s",
				m.dst, e.failedLinkWhy(dead, "is their forced next link"))
		}
	}
	m.packetsLeft--
	if m.packetsLeft == 0 {
		e.freeMessage(mi)
	}
}

// freeMessage returns a finished message's slot, dropping its
// references to the shared route tables.
func (e *engine) freeMessage(mi int32) {
	m := &e.msgs[mi]
	m.route, m.paths = nil, nil
	e.freeMsg = append(e.freeMsg, mi)
}

// freePacket returns a delivered or discarded packet's slot.
func (e *engine) freePacket(idx int32) {
	p := &e.packets[idx]
	p.msg, p.route, p.paths = -1, nil, nil
	e.freePkt = append(e.freePkt, idx)
}

// tryStart attempts to begin a transmission on link l, arbitrating
// round-robin across its VC queues. Safe to call speculatively: all
// gates re-checked, and a call that starts nothing changes no state.
func (e *engine) tryStart(l int32, now int64) {
	if e.linkQueued[l] == 0 || e.failed[l] || e.linkFree[l] > now {
		return
	}
	start := int(e.linkRR[l])
	for i := 0; i < e.vcs; i++ {
		vc := int8((start + i) % e.vcs)
		q := e.qid(l, vc)
		if e.qLen[q] == 0 {
			continue
		}
		idx := e.qFront(q)
		p := &e.packets[idx]
		var last bool
		if p.route != nil {
			last = p.hop == len(p.route)-1
		} else {
			last = int(e.linkDst[l]) < e.numProc
		}
		var next int32
		if !last {
			c := e.hop.next(e, e.linkDst[l], p, p.hop+1, vc)
			if c.status == hopBlocked {
				e.vcStalls++
				continue // this VC blocked; let another VC use the wire
			}
			if c.status == hopDead {
				// Permanently unroutable from here (a failed forced
				// downward link, or every admissible up-port dead):
				// discard the packet so the queue keeps draining
				// instead of wedging the fabric behind it. The slot it
				// held drains through the ordinary evFree path, which
				// also re-arms this link and unblocks upstream feeders.
				e.dequeue(q, l)
				e.schedule(now, now+1, evFree, q, -1)
				e.dropPacket(p.msg, c.dead)
				e.freePacket(idx)
				return
			}
			next = c.link
			e.hop.commit(e, e.linkDst[l], p, c)
			e.occ[e.qid(next, vc)]++
		}
		// Commit: pop, busy the link, free our slot when the tail
		// leaves.
		f := int64(p.flits)
		e.dequeue(q, l)
		e.linkFree[l] = now + f
		e.linkRR[l] = int32((int(vc) + 1) % e.vcs)
		e.linkStarts[l]++
		e.schedule(now, now+f, evFree, q, -1)
		if last {
			e.schedule(now, now+f, evDeliver, q, idx)
			return
		}
		p.hop++
		e.schedule(now, now+1+e.cfg.RouterDelay, evArrive, e.qid(next, vc), idx)
		return
	}
}

// free handles the tail of a transmission leaving queue q: the link
// idles and the queue slot returns, unblocking the next local packet,
// upstream senders (round-robin) and the injection queue.
//
// The upstream senders are probed in round-robin order from rrIdx[l],
// stopping once the slot is taken again, but only those holding a
// queued packet: a probe of an empty feeder would start nothing and
// change no state or tally, so skipping it leaves the run unchanged.
// Probing starts nothing synchronously on another feeder's queue, so
// the set bits can be read live as the walk advances.
func (e *engine) free(q int32, now int64) {
	e.occ[q]--
	if e.occ[q] < 0 {
		panic("flit: occupancy underflow") // invariant guard
	}
	l := e.qlink(q)
	e.tryStart(l, now)
	src := int(e.linkSrc[l])
	if src < e.numProc {
		e.drainInjection(src, now)
		return
	}
	// Walk the set bits of [start, n), then of [0, start).
	fs, start, off := e.feeders[l], e.rrIdx[l], e.inOff[src]
	for j, hi := start, len(fs); ; j++ {
		if j = e.nextQueued(off, j, hi); j >= hi {
			if hi == start {
				return
			}
			j, hi = -1, start
			continue
		}
		e.tryStart(fs[j], now)
		if e.occ[q] >= e.cfg.BufferPackets {
			e.rrIdx[l] = (j + 1) % len(fs)
			return
		}
	}
}

// deliver finalizes a packet at its destination.
func (e *engine) deliver(idx int32, now int64) {
	p := &e.packets[idx]
	e.pktsInFlight--
	if now >= e.warmEnd && now < e.endTime {
		e.flitsEjected += int64(p.flits)
		e.ejectedPer[p.dst] += int64(p.flits)
	}
	m := &e.msgs[p.msg]
	m.packetsLeft--
	if m.packetsLeft == 0 {
		if m.measured && !m.dropped && now < e.endTime {
			e.msgsDone++
			d := float64(now - m.genTime)
			e.delay.Add(d)
			if b := (now - e.warmEnd) / e.batchLen; b >= 0 && int(b) < len(e.batches) {
				e.batches[b].Add(d)
			}
			if e.hist != nil {
				e.hist.Observe(d)
			}
		}
		e.freeMessage(p.msg)
	}
	e.freePacket(idx)
}

// start primes the simulation: every node's first Poisson injection.
func (e *engine) start() {
	for n := 0; n < e.numProc; n++ {
		e.scheduleArrival(n, 0)
	}
}

// runLimit is the cycle cap of a full run: the configured end, or ten
// windows when draining the backlog.
func (e *engine) runLimit() int64 {
	limit := e.endTime
	if e.cfg.Drain {
		limit = e.endTime * 10
		if limit < e.endTime+1000 {
			limit = e.endTime + 1000
		}
	}
	return limit
}

// loop advances the simulation from e.now up to (but excluding) limit,
// or until no event can ever fire again. Resumable: a test can warm the
// engine up, then measure additional cycles in isolation.
func (e *engine) loop(limit int64) {
	for ; e.now < limit; e.now++ {
		now := e.now
		if e.pending == 0 && len(e.inj) == 0 {
			// Nothing scheduled and no injections left: no event can
			// ever fire again (events exist iff transmissions are in
			// flight). With packets still in flight that is a
			// permanently wedged fabric — the no-progress watchdog ends
			// the run with a diagnostic instead of spinning to the
			// cycle cap. Leftover backlog after the window without
			// Drain is ordinary post-saturation state, not a wedge.
			if e.pktsInFlight > 0 && (e.cfg.Drain || now < e.endTime) {
				e.wedged, e.wedgedAt = true, now
				e.wedgeDiag = e.stallDiagnosis()
			}
			return
		}
		// Injections first (they were scheduled far in advance, as the
		// former global ordering had them).
		for len(e.inj) > 0 && e.inj[0].time <= now {
			ev := e.inj.pop()
			e.inject(int(ev.node), now)
			e.scheduleArrival(int(ev.node), now)
		}
		// Then this cycle's network events, in scheduling order. No
		// handler schedules into the current cycle, so the bucket can
		// be detached wholesale.
		b := now % e.wheelSpan
		if len(e.wheel[b]) == 0 {
			if e.pending == 0 && len(e.inj) > 0 {
				// Idle network: jump to the next injection. (With the
				// heap also empty the next top-of-loop check ends the
				// run, wedged or done.)
				if t := e.inj[0].time; t > now+1 {
					e.now = t - 1
				}
			}
			continue
		}
		scratch := e.evScratch
		scratch, e.wheel[b] = e.wheel[b], scratch[:0]
		e.pending -= len(scratch)
		for _, ev := range scratch {
			switch ev.kind {
			case evArrive:
				q, l := ev.a, e.qlink(ev.a)
				if e.qLen[q] >= e.bufB {
					panic("flit: queue overflow") // invariant guard
				}
				e.enqueue(q, l, ev.pkt)
				if e.qLen[q] == 1 {
					e.tryStart(l, now)
				}
			case evDeliver:
				e.deliver(ev.pkt, now)
			case evFree:
				e.free(ev.a, now)
			}
		}
		e.evScratch = scratch[:0]
	}
}

// run executes the simulation and gathers the result.
func (e *engine) run() Result {
	e.start()
	e.loop(e.runLimit())
	return e.result()
}

// result gathers the statistics of a finished run and folds the
// engine's metric tallies into the shared obs registry.
func (e *engine) result() Result {
	e.foldMetrics()
	capacity := float64(e.cfg.MeasureCycles) * float64(e.numProc) * float64(e.topo.W(1))
	res := Result{
		OfferedLoad:    e.cfg.OfferedLoad,
		Throughput:     float64(e.flitsEjected) / capacity,
		AvgDelay:       e.delay.Mean(),
		MsgsGenerated:  e.msgsGen,
		MsgsCompleted:  e.msgsDone,
		MsgsUnroutable: e.msgsUnroutable,
		FlitsEjected:   e.flitsEjected,
		BacklogPackets: e.pktsInFlight,
		VCStalls:       e.vcStalls,
		Cycles:         e.cfg.MeasureCycles,
		Wedged:         e.wedged,
		WedgedAt:       e.wedgedAt,
		WedgeDiagnosis: e.wedgeDiag,
	}
	if res.WedgeDiagnosis == "" {
		// Not wedged, but the adaptive selectors may have discarded
		// unroutable messages: surface the first drop's diagnosis.
		res.WedgeDiagnosis = e.unroutableDiag
	}
	if e.hist != nil {
		res.P95Delay = e.hist.Percentile(95)
	}
	// Batch-means CI: treat non-empty batch means as i.i.d. samples.
	var bm stats.Accumulator
	for i := range e.batches {
		if e.batches[i].N() > 0 {
			bm.Add(e.batches[i].Mean())
		}
	}
	if bm.N() >= 2 {
		res.DelayCI = bm.ConfidenceHalfWidth(0.95)
	}
	res.Saturated = res.Throughput < 0.95*e.cfg.OfferedLoad
	// Jain's fairness index over per-destination ejections.
	var sum, sumSq float64
	for _, x := range e.ejectedPer {
		v := float64(x)
		sum += v
		sumSq += v * v
	}
	if sumSq > 0 {
		res.Fairness = sum * sum / (float64(len(e.ejectedPer)) * sumSq)
	}
	return res
}

// stallDiagnosis names an exemplar permanently blocked packet and why
// it cannot move, for the watchdog's report.
func (e *engine) stallDiagnosis() string {
	for q := range e.qLen {
		if e.qLen[q] == 0 {
			continue
		}
		p := &e.packets[e.qFront(int32(q))]
		l := e.qlink(int32(q))
		why := "downstream buffers never free"
		switch {
		case e.failed[l]:
			why = e.failedLinkWhy(l, "itself is failed")
		case p.route != nil && p.hop < len(p.route)-1:
			next := e.outLinks[e.linkDst[l]][p.route[p.hop+1]]
			if e.failed[next] {
				why = e.failedLinkWhy(next, "is its failed next link")
			}
		}
		return fmt.Sprintf("%d packets in flight with no schedulable event; e.g. a packet for node %d queued on link %d (vc %d): %s",
			e.pktsInFlight, p.dst, l, q%e.vcs, why)
	}
	for n, iq := range e.injQueue {
		if h := e.injHead[n]; h < len(iq) {
			m := &e.msgs[iq[h]]
			return fmt.Sprintf("%d packets in flight with no schedulable event; e.g. a message for node %d (%d packets unsent) stuck in node %d's injection queue",
				e.pktsInFlight, m.dst, m.unsent, n)
		}
	}
	return fmt.Sprintf("%d packets in flight with no schedulable event and no queued location (accounting violation)", e.pktsInFlight)
}

// failedLinkWhy explains a failed link for the wedge diagnosis. When
// the fault set covers an entire switch at either endpoint the whole
// node is gone — naming it beats reporting its dead cables one wedge
// at a time, and is what an operator acts on.
func (e *engine) failedLinkWhy(link int32, role string) string {
	l := topology.LinkID(link)
	if f := e.cfg.faults; f != nil {
		from, to := e.topo.LinkEndpoints(l)
		for _, n := range [2]topology.NodeID{from, to} {
			if f.SwitchDead(n) {
				return fmt.Sprintf("switch %d is failed (link %d %s)", n, l, role)
			}
		}
	}
	return fmt.Sprintf("link %d %s", l, role)
}

// Run executes one flit-level simulation.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	return newEngine(cfg).run(), nil
}

// MustRun is Run but panics on configuration errors; for tests and
// examples.
func MustRun(cfg Config) Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}
