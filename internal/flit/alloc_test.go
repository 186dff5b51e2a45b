package flit

// Allocation regression tests: the engine's steady-state event loop
// must not allocate per event once its arenas, wheel buckets and
// queues have reached their high-water capacity. The historical
// offenders — container/heap boxing every injection event, a fresh
// *message per message, and the rrPath map — are all pinned here.

import (
	"math/rand"
	"testing"

	"xgftsim/internal/core"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// allocCfg is the shared shape of the allocation pins: a 16-node
// fabric under a derangement at load 0.6, with a far-away end that
// keeps injections flowing for every measured window (the tests never
// run anywhere near that horizon).
func allocCfg(t *testing.T, permSeed, seed int64, sel OutputSelector) Config {
	t.Helper()
	tp := topology.MustNew(2, []int{4, 4}, []int{1, 4})
	perm := traffic.RandomDerangementish(tp.NumProcessors(), rand.New(rand.NewSource(permSeed)))
	cfg, err := Config{
		Routing:       core.NewRouting(tp, core.Disjoint{}, 4, 0),
		Pattern:       traffic.NewPermutationPattern("alloc", perm),
		OfferedLoad:   0.6,
		WarmupCycles:  1000,
		MeasureCycles: 100_000_000,
		Seed:          seed,
		Selector:      sel,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// pinSteadyState warms an engine past its transient growth phase
// (route caches, arenas, wheel buckets), then requires 2000 more
// simulated cycles to run allocation-free (amortized below one
// allocation per window). It returns the engine for further checks.
func pinSteadyState(t *testing.T, cfg Config, warm int64) *engine {
	t.Helper()
	e := newEngine(cfg)
	e.start()
	e.loop(warm)
	if e.pktsInFlight == 0 {
		t.Fatal("no traffic in flight after warmup; test would measure an idle loop")
	}
	allocs := testing.AllocsPerRun(5, func() {
		e.loop(e.now + 2000)
	})
	if allocs >= 1 {
		t.Errorf("%v steady-state loop allocates %.0f times per 2000 cycles; want 0", cfg.Selector, allocs)
	}
	return e
}

// TestEngineSteadyStateAllocs pins the oblivious loop, then adaptive-K
// over three VCs assigned by destination subtree, which drives the
// ring queues, the queued-inbound masks and the per-port path masks on
// every channel.
func TestEngineSteadyStateAllocs(t *testing.T) {
	cfg := allocCfg(t, 9, 5, SelectOblivious)
	if e := newEngine(cfg); e.rrPathDense == nil {
		t.Fatal("small topology did not get the dense round-robin table")
	}
	// The metric tallies (VC stalls, injection-heap high water) are part
	// of the measured loop, so this pin also guarantees metric
	// increments allocate nothing.
	e := pinSteadyState(t, cfg, 20_000)
	if e.vcStalls == 0 {
		t.Log("no VC stalls observed (load too light to exercise the stall tally)")
	}
	if e.injHeapHW == 0 {
		t.Error("injection-heap high-water tally never moved")
	}
	// Folding the tallies into the shared registry happens once per run,
	// off the hot path; it must still be allocation-free so result()
	// cannot disturb callers' pins.
	if fold := testing.AllocsPerRun(5, e.foldMetrics); fold != 0 {
		t.Errorf("foldMetrics allocates %.1f times; want 0", fold)
	}

	cfg = allocCfg(t, 13, 7, SelectAdaptiveK)
	cfg.VirtualChannels, cfg.VCScheme = 3, VCDestSubtree
	if e := pinSteadyState(t, cfg, 200_000); e.vcs != 3 {
		t.Fatalf("engine runs %d VCs, want 3", e.vcs)
	}
}

// TestEngineAdaptiveSteadyStateAllocs covers the adaptive path (no
// source routes, per-hop port choice), which shares the injection and
// event machinery. Adaptive queues reach their high-water occupancy
// more slowly than source-routed ones, so it warms much longer.
func TestEngineAdaptiveSteadyStateAllocs(t *testing.T) {
	pinSteadyState(t, allocCfg(t, 11, 7, SelectAdaptive), 200_000)
}

// TestEngineAdaptiveKSteadyStateAllocs covers the adaptive-K selector,
// whose per-pair path cache (path indices and port masks) must stay
// off the allocator once every pair has been seen.
func TestEngineAdaptiveKSteadyStateAllocs(t *testing.T) {
	pinSteadyState(t, allocCfg(t, 13, 7, SelectAdaptiveK), 200_000)
}
