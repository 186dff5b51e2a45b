package flit

import (
	"math"
	"testing"

	"xgftsim/internal/core"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

func smallTree(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.MustNew(2, []int{4, 8}, []int{1, 4}) // 8-port 2-tree, N=32
}

func TestConfigValidation(t *testing.T) {
	tp := smallTree(t)
	r := core.NewRouting(tp, core.DModK{}, 1, 0)
	pat := traffic.UniformPattern{N: tp.NumProcessors()}
	bad := []Config{
		{},
		{Routing: r},
		{Routing: r, Pattern: pat}, // zero load
		{Routing: r, Pattern: pat, OfferedLoad: 1.5},                        // load > 1
		{Routing: r, Pattern: pat, OfferedLoad: 0.5, FlitsPerPacket: -1},    // bad size
		{Routing: r, Pattern: pat, OfferedLoad: 0.5, MeasureCycles: -5},     // bad window
		{Routing: r, Pattern: pat, OfferedLoad: 0.5, PacketsPerMessage: -2}, // bad size
		{Routing: r, Pattern: pat, OfferedLoad: 0.5, BufferPackets: -1},     // bad size
		{Routing: r, Pattern: pat, OfferedLoad: 0.5, RouterDelay: -1},       // bad delay
		{Routing: r, Pattern: pat, OfferedLoad: 0.5, WarmupCycles: -1},      // bad warmup
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustRun should panic on a bad config")
			}
		}()
		MustRun(Config{})
	}()
}

// TestZeroLoadDelay pins the analytic zero-load message delay: with a
// single sender and no contention, a message of P packets of F flits
// over 2k hops takes exactly P·F + (2k-1)·(1+RouterDelay) cycles.
func TestZeroLoadDelay(t *testing.T) {
	tp := smallTree(t)
	n := tp.NumProcessors()
	// Only node 0 sends, to the farthest node (NCA at level 2 -> 4 hops).
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	perm[0] = n - 1
	const F, P = 8, 4
	cfg := Config{
		Routing:           core.NewRouting(tp, core.DModK{}, 1, 0),
		Pattern:           traffic.NewPermutationPattern("single", perm),
		OfferedLoad:       0.02, // sparse enough that messages never overlap
		FlitsPerPacket:    F,
		PacketsPerMessage: P,
		WarmupCycles:      2000,
		MeasureCycles:     60000,
		Seed:              1,
	}
	res := MustRun(cfg)
	if res.MsgsCompleted < 5 {
		t.Fatalf("too few messages: %d", res.MsgsCompleted)
	}
	hops := 2 * tp.NCALevel(0, n-1)
	want := float64(P*F + (hops-1)*2) // RouterDelay defaults to 1
	if math.Abs(res.AvgDelay-want) > 0.5 {
		t.Fatalf("zero-load delay %.2f, want %.1f", res.AvgDelay, want)
	}
}

// TestZeroLoadDelayScalesWithRouterDelay doubles the router delay and
// checks the per-hop term.
func TestZeroLoadDelayScalesWithRouterDelay(t *testing.T) {
	tp := smallTree(t)
	n := tp.NumProcessors()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	perm[0] = n - 1
	cfg := Config{
		Routing:           core.NewRouting(tp, core.DModK{}, 1, 0),
		Pattern:           traffic.NewPermutationPattern("single", perm),
		OfferedLoad:       0.02,
		FlitsPerPacket:    4,
		PacketsPerMessage: 1,
		RouterDelay:       3,
		WarmupCycles:      2000,
		MeasureCycles:     40000,
		Seed:              2,
	}
	res := MustRun(cfg)
	hops := 2 * tp.NCALevel(0, n-1)
	want := float64(4 + (hops-1)*4) // F + (hops-1)(1+3)
	if math.Abs(res.AvgDelay-want) > 0.5 {
		t.Fatalf("delay %.2f, want %.1f", res.AvgDelay, want)
	}
}

// TestLowLoadThroughputTracksOffered: far below saturation, accepted
// throughput equals offered load.
func TestLowLoadThroughputTracksOffered(t *testing.T) {
	tp := smallTree(t)
	cfg := Config{
		Routing:     core.NewRouting(tp, core.Disjoint{}, 2, 0),
		Pattern:     traffic.UniformPattern{N: tp.NumProcessors()},
		OfferedLoad: 0.2,
		Seed:        3,
	}
	res := MustRun(cfg)
	if math.Abs(res.Throughput-0.2) > 0.02 {
		t.Fatalf("throughput %.4f at load 0.2", res.Throughput)
	}
	if res.Saturated {
		t.Fatal("saturated at load 0.2")
	}
	if res.AvgDelay <= 0 {
		t.Fatal("no delay recorded")
	}
}

func TestDeterminism(t *testing.T) {
	tp := smallTree(t)
	cfg := Config{
		Routing:       core.NewRouting(tp, core.RandomK{}, 2, 5),
		Pattern:       traffic.UniformPattern{N: tp.NumProcessors()},
		OfferedLoad:   0.6,
		Seed:          77,
		WarmupCycles:  1500,
		MeasureCycles: 6000,
	}
	a := MustRun(cfg)
	b := MustRun(cfg)
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 78
	c := MustRun(cfg)
	if a == c {
		t.Fatal("different seeds gave identical results")
	}
}

// TestConservation: every measured ejected flit belongs to an injected
// packet, and the end-of-run backlog is non-negative; at low load the
// backlog is tiny.
func TestConservation(t *testing.T) {
	tp := smallTree(t)
	cfg := Config{
		Routing:       core.NewRouting(tp, core.DModK{}, 1, 0),
		Pattern:       traffic.UniformPattern{N: tp.NumProcessors()},
		OfferedLoad:   0.15,
		Seed:          4,
		WarmupCycles:  2000,
		MeasureCycles: 8000,
	}
	res := MustRun(cfg)
	if res.BacklogPackets < 0 {
		t.Fatalf("negative backlog %d", res.BacklogPackets)
	}
	if res.BacklogPackets > 64 {
		t.Fatalf("backlog %d at low load", res.BacklogPackets)
	}
	if res.FlitsEjected%int64(8) != 0 {
		t.Fatalf("ejected flits %d not a whole number of packets", res.FlitsEjected)
	}
}

// TestSaturationBehaviour: at full offered load on single-path routing
// the network saturates: accepted < offered and backlog grows.
func TestSaturationBehaviour(t *testing.T) {
	tp := smallTree(t)
	cfg := Config{
		Routing:       core.NewRouting(tp, core.DModK{}, 1, 0),
		Pattern:       traffic.UniformPattern{N: tp.NumProcessors()},
		OfferedLoad:   1.0,
		Seed:          5,
		WarmupCycles:  3000,
		MeasureCycles: 12000,
	}
	res := MustRun(cfg)
	if !res.Saturated {
		t.Fatalf("not saturated at load 1.0: %v", res)
	}
	if res.Throughput >= 0.95 {
		t.Fatalf("throughput %.3f suspiciously high for d-mod-k", res.Throughput)
	}
	if res.BacklogPackets < 100 {
		t.Fatalf("backlog %d too small beyond saturation", res.BacklogPackets)
	}
}

// TestMultipathRaisesThroughput: the paper's core flit-level claim —
// under the fixed random-assignment workload (see DESIGN.md §5), more
// paths raise maximum throughput over single-path routing.
func TestMultipathRaisesThroughput(t *testing.T) {
	tp := topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4}) // Table 1 topology
	rng := stats.Stream(99, 0)
	pat := traffic.NewPermutationPattern("fixed-perm", traffic.RandomDerangementish(tp.NumProcessors(), rng))
	maxThr := func(sel core.Selector, k int) float64 {
		base := Config{
			Routing:       core.NewRouting(tp, sel, k, 0),
			Pattern:       pat,
			Seed:          6,
			WarmupCycles:  2000,
			MeasureCycles: 6000,
		}
		res, err := Sweep(SweepConfig{Base: base, Loads: []float64{0.5, 0.7, 0.9, 1.0}})
		if err != nil {
			t.Fatal(err)
		}
		return MaxThroughput(res)
	}
	single := maxThr(core.DModK{}, 1)
	multi2 := maxThr(core.Disjoint{}, 2)
	multi8 := maxThr(core.Disjoint{}, 8)
	if multi2 <= single {
		t.Fatalf("disjoint(2)=%.3f not above d-mod-k=%.3f", multi2, single)
	}
	if multi8 <= multi2 {
		t.Fatalf("disjoint(8)=%.3f not above disjoint(2)=%.3f", multi8, multi2)
	}
}

// TestPerMessageUniformAlignsDModK documents the ablation that
// motivated the workload reading in DESIGN.md §5: with per-message
// random destinations, d-mod-k's perfect tree alignment keeps it at
// least on par with multi-path routing.
func TestPerMessageUniformAlignsDModK(t *testing.T) {
	tp := topology.MustNew(3, []int{2, 2, 4}, []int{1, 2, 2})
	pat := traffic.UniformPattern{N: tp.NumProcessors()}
	thr := func(sel core.Selector, k int) float64 {
		cfg := Config{
			Routing:       core.NewRouting(tp, sel, k, 0),
			Pattern:       pat,
			OfferedLoad:   0.9,
			Seed:          6,
			WarmupCycles:  2000,
			MeasureCycles: 8000,
		}
		return MustRun(cfg).Throughput
	}
	if single, multi := thr(core.DModK{}, 1), thr(core.Disjoint{}, 4); multi > single+0.05 {
		t.Fatalf("per-message uniform: disjoint(4)=%.3f should not beat aligned d-mod-k=%.3f", multi, single)
	}
}

func TestRoundRobinVsRandomPathPolicies(t *testing.T) {
	tp := smallTree(t)
	base := Config{
		Routing:       core.NewRouting(tp, core.Disjoint{}, 4, 0),
		Pattern:       traffic.UniformPattern{N: tp.NumProcessors()},
		OfferedLoad:   0.25,
		Seed:          8,
		WarmupCycles:  2000,
		MeasureCycles: 8000,
	}
	rr := base
	rr.PathPolicy = RoundRobin
	rp := base
	rp.PathPolicy = RandomPath
	a, b := MustRun(rr), MustRun(rp)
	// Both operate below saturation and deliver the offered load.
	for _, r := range []Result{a, b} {
		if math.Abs(r.Throughput-base.OfferedLoad) > 0.03 {
			t.Fatalf("policy run off target: %v", r)
		}
	}
	if RoundRobin.String() != "round-robin" || RandomPath.String() != "random" {
		t.Fatal("PathPolicy strings")
	}
	if PathPolicy(9).String() == "" {
		t.Fatal("unknown policy string empty")
	}
	for _, p := range []PathPolicy{RoundRobin, RandomPath} {
		if got, err := ParsePathPolicy(p.String()); err != nil || got != p {
			t.Fatalf("ParsePathPolicy(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := ParsePathPolicy("bogus"); err == nil {
		t.Fatal("ParsePathPolicy accepted an unknown name")
	}
}

func TestDelayHistogram(t *testing.T) {
	tp := smallTree(t)
	cfg := Config{
		Routing:        core.NewRouting(tp, core.DModK{}, 1, 0),
		Pattern:        traffic.UniformPattern{N: tp.NumProcessors()},
		OfferedLoad:    0.3,
		Seed:           9,
		WarmupCycles:   1000,
		MeasureCycles:  6000,
		DelayHistogram: true,
	}
	res := MustRun(cfg)
	if res.P95Delay <= 0 {
		t.Fatalf("no p95: %v", res)
	}
	if res.P95Delay < res.AvgDelay {
		t.Fatalf("p95 %.1f below mean %.1f", res.P95Delay, res.AvgDelay)
	}
}

func TestSweepAndHelpers(t *testing.T) {
	tp := smallTree(t)
	base := Config{
		Routing:       core.NewRouting(tp, core.Disjoint{}, 4, 0),
		Pattern:       traffic.UniformPattern{N: tp.NumProcessors()},
		Seed:          10,
		WarmupCycles:  1000,
		MeasureCycles: 4000,
	}
	results, err := Sweep(SweepConfig{Base: base, Loads: []float64{0.2, 0.5, 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, want := range []float64{0.2, 0.5, 0.9} {
		if results[i].OfferedLoad != want {
			t.Fatalf("result %d at load %g", i, results[i].OfferedLoad)
		}
	}
	if mt := MaxThroughput(results); mt < 0.4 {
		t.Fatalf("max throughput %.3f", mt)
	}
	if sl := SaturationLoad(results); sl <= 0 || sl > 1 {
		t.Fatalf("saturation load %g", sl)
	}
	if got := len(DefaultLoads()); got != 20 {
		t.Fatalf("default grid %d points", got)
	}
	if _, err := Sweep(SweepConfig{Base: base, Loads: []float64{2}}); err == nil {
		t.Fatal("bad sweep load accepted")
	}
	if _, err := Sweep(SweepConfig{Base: Config{}, Loads: []float64{0.5}}); err == nil {
		t.Fatal("bad base config accepted")
	}
	if MaxThroughput(nil) != 0 || SaturationLoad(nil) != 1 {
		t.Fatal("empty helpers")
	}
}

// TestResultString smoke-checks the formatter.
func TestResultString(t *testing.T) {
	r := Result{OfferedLoad: 0.5, Throughput: 0.49}
	if r.String() == "" {
		t.Fatal("empty string")
	}
}
