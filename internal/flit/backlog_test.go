package flit

import (
	"testing"

	"xgftsim/internal/core"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// TestSaturatedBacklogBounded runs the Table 1 fabric past saturation
// at two measurement windows and pins where a source backlog lives:
// the packet arena holds only packets the fabric's buffers admit, so
// it is bounded by directed links × VCs × BufferPackets and does not
// grow with the window, while each node's injection queue holds
// messages and its capacity tracks the node's peak backlog of them.
func TestSaturatedBacklogBounded(t *testing.T) {
	tp := topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4})
	arena := map[int64]int{}
	for _, window := range []int64{20_000, 80_000} {
		cfg, err := Config{
			Routing: core.NewRouting(tp, core.Disjoint{}, 4, 0),
			Pattern: traffic.NewPermutationPattern("backlog",
				traffic.RandomDerangementish(tp.NumProcessors(), stats.Stream(3, 31))),
			OfferedLoad:   0.9,
			WarmupCycles:  2000,
			MeasureCycles: window,
			Seed:          3,
		}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(cfg)
		e.start()
		peak := make([]int, e.numProc)
		for e.now < e.endTime {
			e.loop(e.now + 50)
			for n, q := range e.injQueue {
				if b := len(q) - e.injHead[n]; b > peak[n] {
					peak[n] = b
				}
			}
		}
		res := e.result()
		if !res.Saturated || res.BacklogPackets == 0 {
			t.Fatalf("window %d: throughput %.3f at load %.1f builds no backlog; the test measures nothing",
				window, res.Throughput, cfg.OfferedLoad)
		}
		capacity := tp.NumLinks() * e.vcs * cfg.BufferPackets
		if len(e.packets) > capacity {
			t.Errorf("window %d: packet arena grew to %d slots for %d packets in flight; the fabric buffers hold %d",
				window, len(e.packets), res.BacklogPackets, capacity)
		}
		arena[window] = len(e.packets)
		maxCap, maxPeak := 0, 0
		for n, q := range e.injQueue {
			maxCap, maxPeak = max(maxCap, cap(q)), max(maxPeak, peak[n])
			// Append doubles a small slice and rounds it to a size
			// class, so allow a constant on top of the factor of 4.
			if c := cap(q); c > 4*peak[n]+16 {
				t.Errorf("window %d: node %d's injection queue has capacity %d for a peak backlog of %d messages",
					window, n, c, peak[n])
			}
		}
		t.Logf("window %d: throughput %.3f, %d packets in flight, arena %d of %d buffer slots, largest queue capacity %d, largest peak backlog %d messages",
			window, res.Throughput, res.BacklogPackets, len(e.packets), capacity, maxCap, maxPeak)
	}
	if short, long := arena[20_000], arena[80_000]; 2*long > 3*short {
		t.Errorf("packet arena grew with the window: %d slots at 20k cycles, %d at 80k", short, long)
	}
}
