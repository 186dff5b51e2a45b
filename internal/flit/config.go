// Package flit implements the paper's flit-level network simulator: an
// event-driven, cycle-accurate model of virtual cut-through (VCT)
// switching with credit-based flow control and configurable virtual
// channels (the paper evaluates with one, the default), closely
// resembling InfiniBand fabrics. Packets are
// source-routed along the paths computed by a core.Routing; messages
// arrive at each processing node following a Poisson process whose
// rate realizes the configured offered load.
//
// Model summary (see DESIGN.md for the digit-reconstruction notes):
//
//   - Links move one flit per cycle; a packet of F flits occupies its
//     link for F cycles and its head incurs one cycle of latency per
//     hop, so the zero-load network delay of a packet over 2k hops is
//     2k + F cycles (cut-through overlaps serialization across hops).
//   - Every switch input port has a buffer of B packets. A packet may
//     start on an output link only when the link is idle, the packet's
//     head has arrived, the input buffer's read port is free, and the
//     downstream input buffer holds a credit (one free packet slot) —
//     the paper's "a packet is blocked if the destination port does
//     not have available buffer space".
//   - A buffer slot is released (and its credit returned upstream)
//     when the packet's tail leaves the buffer.
//   - Arbitration per output port is round-robin across input sources.
package flit

import (
	"fmt"

	"xgftsim/internal/core"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// PathPolicy selects which of an SD pair's K paths each message takes.
type PathPolicy int

// Path selection policies.
const (
	// RoundRobin cycles deterministically through the pair's path set,
	// realizing the paper's uniform traffic fractions exactly.
	RoundRobin PathPolicy = iota
	// RandomPath draws a path uniformly per message, realizing the
	// fractions in expectation.
	RandomPath
)

func (p PathPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case RandomPath:
		return "random"
	}
	return fmt.Sprintf("PathPolicy(%d)", int(p))
}

// ParsePathPolicy resolves a path policy name as printed by String.
func ParsePathPolicy(name string) (PathPolicy, error) {
	switch name {
	case "round-robin":
		return RoundRobin, nil
	case "random":
		return RandomPath, nil
	}
	return 0, fmt.Errorf("flit: unknown path policy %q (want round-robin or random)", name)
}

// Config parameterizes one simulation run.
type Config struct {
	// Routing supplies topology and per-pair path sets.
	Routing *core.Routing
	// Pattern draws message destinations.
	Pattern traffic.Pattern
	// OfferedLoad is the normalized injection rate in (0, 1]: the
	// fraction of each node's injection bandwidth (w_1 flits/cycle)
	// offered as traffic.
	OfferedLoad float64
	// FlitsPerPacket is the packet length F. Default 8.
	FlitsPerPacket int
	// PacketsPerMessage is the fixed message size in packets. Default 4.
	PacketsPerMessage int
	// BufferPackets is the per-input-port buffer capacity B. Default 4.
	BufferPackets int
	// RouterDelay is the per-hop header processing latency in cycles.
	// Default 1.
	RouterDelay int64
	// VirtualChannels is the number of virtual channels (InfiniBand
	// virtual lanes) per link, each with its own BufferPackets-deep
	// queue. Messages are assigned a VC at injection (round-robin per
	// node) and keep it along the path; the physical link arbitrates
	// round-robin across VCs. The paper evaluates with a single VC
	// (the default), which this knob relaxes.
	VirtualChannels int
	// WarmupCycles are simulated before measurement starts. Default 10000.
	WarmupCycles int64
	// MeasureCycles is the measurement window length. Default 30000.
	MeasureCycles int64
	// Seed drives all randomness in the run.
	Seed int64
	// PathPolicy selects per-message path choice. Default RoundRobin.
	PathPolicy PathPolicy
	// Routes optionally supplies a shared per-pair route cache so
	// engines of a sweep stop re-expanding the same routing. Nil keeps
	// an engine-local cache; flit.Sweep installs a shared table
	// automatically. Oblivious engines read port routes from it,
	// adaptive-K engines read path indices; full adaptive ignores it.
	Routes *RouteTable
	// FailedLinks lists directed links that are down for the whole
	// run: they never transmit. Oblivious routings stall the flows
	// whose precomputed paths cross them (head-of-line backpressure
	// then spreads); adaptive routing steers around failed upward
	// links, losing only the flows whose forced downward path is cut.
	FailedLinks []topology.LinkID
	// Faults optionally supplies a fault set (random or targeted link,
	// cable and switch failures) merged with FailedLinks: every link it
	// marks down never transmits. It must be over the Routing's
	// topology and must not be mutated once the run starts.
	Faults *topology.FaultSet
	// RepairRoutes, when true, expands source routes from the Routing
	// repaired against the combined faults (Faults + FailedLinks)
	// instead of the healthy path sets: flows are re-selected within
	// each scheme's policy around dead links, and messages of
	// disconnected pairs are dropped at injection and counted in
	// Result.MsgsUnroutable instead of wedging the fabric. Ignored
	// under the adaptive selectors, which already steer around
	// failures at run time.
	RepairRoutes bool
	// Adaptive is the legacy switch for minimal adaptive routing; it is
	// equivalent to (and normalized into) Selector: SelectAdaptive.
	// Setting both Adaptive and a non-oblivious Selector is fine as
	// long as they agree.
	Adaptive bool
	// Selector chooses the per-hop output-selection discipline:
	// SelectOblivious (default) walks the source route precomputed from
	// the Routing's K-limited path sets; SelectAdaptive is full minimal
	// adaptive routing ignoring the K-limit (the Routing still supplies
	// the topology; its path selection and PathPolicy are ignored);
	// SelectAdaptiveK steers by VC-queue occupancy among only the
	// up-ports on one of the pair's K compiled paths. Adaptive-K
	// requires the Routing's MaxPathsUsed to fit the 64-bit path mask.
	Selector OutputSelector
	// VCScheme selects how messages are assigned their virtual channel
	// at injection: per-node round-robin (default), VC per destination
	// top-level subtree, or a VOQ-ish channel keyed by the
	// destination's lowest address digit. With one VC all schemes
	// coincide.
	VCScheme VCScheme
	// BurstMean, when > 1, switches arrivals from plain Poisson to
	// bursty: message-generation epochs stay Poisson but are spaced
	// BurstMean times further apart, and each epoch emits a geometric
	// burst of messages with mean BurstMean, preserving the offered
	// load while clustering it. 0 or 1 keeps plain Poisson arrivals.
	BurstMean float64
	// DelayHistogram, when true, collects a message-delay histogram in
	// the result.
	DelayHistogram bool
	// Drain, when true, keeps the simulation running after the
	// measurement window (with injection stopped) until every in-flight
	// packet is delivered, up to a 10x-window safety cap. Measured
	// statistics still cover only the window; with no failed links the
	// final backlog is exactly zero, which the conservation tests
	// assert.
	Drain bool

	// faults and repaired are derived by withDefaults: the validated
	// merge of Faults + FailedLinks, and (under RepairRoutes) the
	// Routing bound to it.
	faults   *topology.FaultSet
	repaired *core.RepairedRouting
}

// combinedFaults merges Faults and FailedLinks into one fault set over
// the routing's topology, validating link ranges (the condition the
// engine used to panic on).
func (c Config) combinedFaults() (*topology.FaultSet, error) {
	t := c.Routing.Topology()
	if c.Faults != nil && c.Faults.Topology() != t {
		return nil, fmt.Errorf("flit: fault set is over %s, routing is over %s", c.Faults.Topology(), t)
	}
	f := topology.NewFaultSet(t)
	if c.Faults != nil {
		if err := f.FailLinks(c.Faults.DownLinks()); err != nil {
			return nil, err
		}
	}
	if err := f.FailLinks(c.FailedLinks); err != nil {
		return nil, fmt.Errorf("flit: %w", err)
	}
	return f, nil
}

// withDefaults fills zero fields and validates.
func (c Config) withDefaults() (Config, error) {
	if c.Routing == nil {
		return c, fmt.Errorf("flit: Config.Routing is required")
	}
	if c.Pattern == nil {
		return c, fmt.Errorf("flit: Config.Pattern is required")
	}
	if c.OfferedLoad <= 0 || c.OfferedLoad > 1 {
		return c, fmt.Errorf("flit: offered load %g out of (0,1]", c.OfferedLoad)
	}
	if c.FlitsPerPacket == 0 {
		c.FlitsPerPacket = 8
	}
	if c.PacketsPerMessage == 0 {
		c.PacketsPerMessage = 4
	}
	if c.BufferPackets == 0 {
		c.BufferPackets = 4
	}
	if c.RouterDelay == 0 {
		c.RouterDelay = 1
	}
	if c.VirtualChannels == 0 {
		c.VirtualChannels = 1
	}
	if c.VirtualChannels < 1 || c.VirtualChannels > 15 {
		return c, fmt.Errorf("flit: virtual channels %d out of [1,15] (InfiniBand VLs)", c.VirtualChannels)
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 10000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 30000
	}
	if c.FlitsPerPacket < 1 || c.PacketsPerMessage < 1 || c.BufferPackets < 1 {
		return c, fmt.Errorf("flit: packet/message/buffer sizes must be >= 1")
	}
	if c.RouterDelay < 0 || c.WarmupCycles < 0 || c.MeasureCycles < 1 {
		return c, fmt.Errorf("flit: negative timing parameters")
	}
	// Normalize the legacy Adaptive flag and the Selector into one
	// consistent pair so the engine and sweep sharing logic read either.
	if c.Selector < SelectOblivious || c.Selector > SelectAdaptiveK {
		return c, fmt.Errorf("flit: unknown output selector %d", int(c.Selector))
	}
	if c.Adaptive && c.Selector == SelectOblivious {
		c.Selector = SelectAdaptive
	}
	if c.Selector == SelectAdaptive {
		c.Adaptive = true
	}
	if c.Selector == SelectAdaptiveK {
		if mp := c.Routing.MaxPathsUsed(); mp > 64 {
			return c, fmt.Errorf("flit: adaptive-K tracks paths in a 64-bit mask; routing assigns up to %d paths per pair (lower K)", mp)
		}
	}
	if c.VCScheme < VCRoundRobin || c.VCScheme > VCDownDigit {
		return c, fmt.Errorf("flit: unknown VC scheme %d", int(c.VCScheme))
	}
	if c.BurstMean == 0 {
		c.BurstMean = 1
	}
	if c.BurstMean < 1 {
		return c, fmt.Errorf("flit: burst mean %g out of [1, inf) (1 = plain Poisson)", c.BurstMean)
	}
	if c.Faults != nil || len(c.FailedLinks) > 0 {
		faults, err := c.combinedFaults()
		if err != nil {
			return c, err
		}
		c.faults = faults
		if c.RepairRoutes && c.Selector == SelectOblivious {
			rr, err := c.Routing.Repair(faults)
			if err != nil {
				return c, err
			}
			c.repaired = rr
		}
	}
	return c, nil
}

// Result reports one simulation run.
type Result struct {
	// OfferedLoad echoes the configured load.
	OfferedLoad float64
	// Throughput is the normalized accepted throughput: flits ejected
	// during measurement divided by the aggregate ejection capacity
	// (cycles × N × w_1). Below saturation it tracks OfferedLoad.
	Throughput float64
	// AvgDelay is the mean message delay in cycles (generation to
	// ejection of the last flit) over messages generated and completed
	// inside the measurement window.
	AvgDelay float64
	// DelayCI is the 95% confidence half-width of AvgDelay estimated
	// by the method of batch means (the measurement window is split
	// into equal batches whose means are treated as independent
	// samples, absorbing the autocorrelation of queueing delays).
	DelayCI float64
	// P95Delay is the 95th-percentile message delay (bucketed upper
	// bound); only collected when Config.DelayHistogram is set.
	P95Delay float64
	// MsgsGenerated and MsgsCompleted count messages generated during
	// measurement and message completions attributed to them.
	MsgsGenerated, MsgsCompleted int64
	// MsgsUnroutable counts messages (whole run, not just the window)
	// dropped as permanently undeliverable: at injection because
	// repaired routing found their SD pair disconnected, or — under the
	// adaptive selectors — in transit because the packet reached a
	// point whose every admissible next link is failed (typically a
	// dead forced downward link). Each message counts once, even when
	// several of its packets are discarded.
	MsgsUnroutable int64
	// FlitsEjected counts measured ejected flits.
	FlitsEjected int64
	// BacklogPackets is the number of packets still queued or in
	// flight at the end of the run — a growing backlog indicates
	// operation beyond saturation.
	BacklogPackets int64
	// VCStalls counts transmissions skipped because the packet's next
	// queue on its virtual channel had no free slot (whole run): the
	// engine's backpressure events, also exported as the flit.vc_stalls
	// metric.
	VCStalls int64
	// Fairness is Jain's fairness index over the per-destination
	// ejected flit counts: 1 means every node received an equal share,
	// 1/N means one node got everything. Quantifies how unevenly a
	// saturated routing starves flows.
	Fairness float64
	// Saturated reports the heuristic judgment that accepted
	// throughput fell measurably below offered load.
	Saturated bool
	// Cycles is the measured window length.
	Cycles int64
	// Wedged reports that the no-progress watchdog fired: packets were
	// in flight but no event could ever fire again (every one of them
	// permanently blocked, typically behind a failed link), so the run
	// terminated at WedgedAt instead of spinning to its cycle cap.
	// WedgeDiagnosis names an exemplar stuck packet; when the run did
	// NOT wedge but the adaptive selectors discarded unroutable
	// messages (MsgsUnroutable > 0), it instead names the dead link
	// behind the first drop.
	Wedged         bool
	WedgedAt       int64
	WedgeDiagnosis string
}

// String summarizes the result on one line.
func (r Result) String() string {
	s := fmt.Sprintf("load=%.3f thr=%.4f delay=%.1f msgs=%d/%d sat=%v",
		r.OfferedLoad, r.Throughput, r.AvgDelay, r.MsgsCompleted, r.MsgsGenerated, r.Saturated)
	if r.Wedged {
		s += fmt.Sprintf(" WEDGED@%d", r.WedgedAt)
	}
	return s
}
