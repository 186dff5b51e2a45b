package flow

import (
	"fmt"
	"runtime"
	"sync"

	"xgftsim/internal/core"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
)

// FailureExperiment is the degraded-fabric analogue of Experiment: for
// each fault seed it draws a random set of failed cables, repairs the
// routing against it, and measures the average maximum link load of
// random permutations with the adaptive protocol. The reported value
// aggregates over fault seeds, so its confidence interval captures the
// fault-placement variance the failure sweep is about (per-permutation
// sampling noise is already driven below the adaptive target inside
// each fault seed).
type FailureExperiment struct {
	Topo *topology.Topology
	Sel  core.Selector
	K    int
	// Fraction of cables failed (both directions each), in [0,1].
	Fraction float64
	// FaultSeeds each draw one random fault placement; the result's CI
	// is over these. nil defaults to three seeds. A zero fraction runs
	// a single seed (all placements are the same empty set).
	FaultSeeds []int64
	// Seeds drive randomized selectors, as in Experiment.
	Seeds []int64
	// PermSeed salts the permutation sample streams.
	PermSeed int64
	// Sampling configures the per-fault-seed adaptive protocol.
	Sampling stats.AdaptiveConfig
	// Confidence is the level of the over-fault-seeds interval;
	// 0 means 0.99, matching the paper's protocol.
	Confidence float64
	// CompileBudget follows Experiment. When the healthy table compiles,
	// the degraded tables are built incrementally: one healthy compile
	// per selector seed (shared through Base when the caller provides
	// one) plus a per-fault-placement delta patch.
	CompileBudget int64
	// Base, when non-nil, supplies the healthy compiled tables and
	// delta repairers shared across every fraction of a sweep column;
	// see NewBase. It must have been built by an experiment with the
	// same topology, scheme, K and seeds.
	Base *FailureBase
	// MeasureDisconnected additionally records the fraction of SD
	// pairs left with no surviving shortest path per fault seed (an
	// O(N²) connectivity scan, so off by default).
	MeasureDisconnected bool
}

// FailureBase is the fault-independent part of a failure experiment:
// the repairable routing per selector seed and, when it compiles, its
// healthy compiled table wrapped in a delta repairer.
// A sweep column builds one base and reuses it for every fraction and
// fault seed, so each placement costs one incremental patch instead of
// a whole-fabric recompile. Immutable after NewBase and safe for
// concurrent use.
type FailureBase struct {
	topo     *topology.Topology
	sel      core.Selector
	k        int
	seeds    []int64
	routings []*core.Routing
	reps     []*core.DeltaRepairer // nil entries: lazy repaired path
}

// FailureResult reports one failure-sweep cell.
type FailureResult struct {
	// Acc accumulates one avg-max-load value per fault seed.
	Acc stats.Accumulator
	// HalfWidth is the confidence half-width over fault seeds (0 when
	// only one seed ran).
	HalfWidth float64
	// Disconnected accumulates the per-fault-seed fraction of
	// disconnected SD pairs; only filled under MeasureDisconnected.
	Disconnected stats.Accumulator
}

// NewBase precomputes everything a failure sweep shares across fault
// placements: per selector seed, the routing and (when compileTable
// accepts it) the healthy compiled table with its link→pairs delta
// repairer. The base does not depend on Fraction or FaultSeeds, so one
// base serves a whole sweep column. A refused compile, or a table too
// large for the repairer's pair index (counted as a budget fallback),
// leaves the corresponding entry on the lazy repaired path.
func (x FailureExperiment) NewBase() *FailureBase {
	seeds := selectorSeeds(x.Sel, x.Seeds)
	b := &FailureBase{
		topo:     x.Topo,
		sel:      x.Sel,
		k:        x.K,
		seeds:    seeds,
		routings: make([]*core.Routing, len(seeds)),
		reps:     make([]*core.DeltaRepairer, len(seeds)),
	}
	for i, s := range seeds {
		b.routings[i] = core.NewRouting(x.Topo, x.Sel, x.K, s)
		c := compileTable(b.routings[i], x.Sampling, x.CompileBudget)
		if c == nil {
			continue
		}
		d, err := core.NewDeltaRepairer(c)
		if err != nil {
			met.compileFallbackBudget.Inc()
			continue
		}
		b.reps[i] = d
	}
	return b
}

// patchBudget is the pair re-selection count below which an
// incremental table patch beats lazy per-sample repair for one fault
// placement: the lazy evaluator re-derives every pair's path set on
// each of up to MaxSamples permutations (N pairs apiece, nothing
// cached across samples), while a patch re-selects each affected pair
// exactly once and leaves per-sample evaluation a plain CSR walk.
// Beyond the budget — heavy fault fractions on small fabrics with
// light sampling — lazy evaluation touches fewer pairs than the patch
// would, so Run keeps the placement on the degraded evaluator.
func (x FailureExperiment) patchBudget() int64 {
	return int64(x.Sampling.WithDefaults().MaxSamples) * int64(x.Topo.NumProcessors())
}

// matches reports whether the base was built for this experiment's
// fault-independent parameters.
func (b *FailureBase) matches(x FailureExperiment, seeds []int64) bool {
	if b.topo != x.Topo || b.sel != x.Sel || b.k != x.K || len(b.seeds) != len(seeds) {
		return false
	}
	for i, s := range seeds {
		if b.seeds[i] != s {
			return false
		}
	}
	return true
}

// Run executes the failure experiment. Invalid parameters panic (the
// grid runners capture panics with their cell index).
func (x FailureExperiment) Run() FailureResult {
	fseeds := x.FaultSeeds
	if len(fseeds) == 0 {
		fseeds = []int64{11, 22, 33}
	}
	if x.Fraction == 0 {
		fseeds = fseeds[:1]
	}
	seeds := selectorSeeds(x.Sel, x.Seeds)
	conf := x.Confidence
	if conf == 0 {
		conf = 0.99
	}
	base := x.Base
	if base == nil {
		base = x.NewBase()
	} else if !base.matches(x, seeds) {
		panic(fmt.Sprintf("flow: failure base was built for %s K=%d on %s, experiment wants %s K=%d on %s",
			base.sel.Name(), base.k, base.topo, x.Sel.Name(), x.K, x.Topo))
	}
	// Fault placement, repair and incremental table patching are
	// independent across fault seeds — run them in parallel before the
	// serial sampling loop (which accumulates in fault-seed order for
	// deterministic confidence intervals). Panics are carried back to
	// this goroutine so the grid runner still captures them.
	type prep struct {
		pools []*evalPool
		disc  float64
	}
	preps := make([]prep, len(fseeds))
	panics := make([]any, len(fseeds))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for fi, fs := range fseeds {
		wg.Add(1)
		go func(fi int, fs int64) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[fi] = r
				}
			}()
			sem <- struct{}{}
			defer func() { <-sem }()
			faults, err := topology.RandomCableFaultFraction(x.Topo, fs, x.Fraction)
			if err != nil {
				panic(fmt.Sprintf("flow: %v", err))
			}
			if x.MeasureDisconnected {
				preps[fi].disc = faults.DisconnectedFraction()
			}
			budget := x.patchBudget()
			pools := make([]*evalPool, len(seeds))
			for i := range seeds {
				rr := base.routings[i].MustRepair(faults)
				if d := base.reps[i]; d != nil && int64(d.AffectedCount(faults)) <= budget {
					c, err := d.CompileRepairedDelta(rr)
					if err != nil {
						panic(fmt.Sprintf("flow: %v", err))
					}
					met.repairPatched.Inc()
					pools[i] = newEvalPool(func() *Evaluator { return NewCompiledEvaluator(c) })
				} else {
					met.repairLazy.Inc()
					pools[i] = newEvalPool(func() *Evaluator { return NewDegradedEvaluator(rr) })
				}
			}
			preps[fi].pools = pools
		}(fi, fs)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	var res FailureResult
	n := x.Topo.NumProcessors()
	for fi := range fseeds {
		if x.MeasureDisconnected {
			res.Disconnected.Add(preps[fi].disc)
		}
		r := stats.SampleAdaptive(x.Sampling, permSampler(n, x.PermSeed, preps[fi].pools))
		res.Acc.Add(r.Acc.Mean())
	}
	if res.Acc.N() > 1 {
		res.HalfWidth = res.Acc.ConfidenceHalfWidth(conf)
	}
	return res
}
