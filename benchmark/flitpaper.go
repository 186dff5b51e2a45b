package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"xgftsim/internal/core"
	"xgftsim/internal/flit"
	"xgftsim/internal/flow"
	"xgftsim/internal/obs"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// goldenPath is where -update-golden writes; the copy compiled into
// the binary is what runs compare against.
const goldenPath = "benchmark/golden/flit-paper.json"

//go:embed golden/flit-paper.json
var flitGoldenJSON []byte

// goldenSeed is the seed the golden file was recorded with.
const goldenSeed = 2012

// flitRun is one of the four simulations of a round.
type flitRun struct {
	selector flit.OutputSelector
	load     float64
}

var flitRuns = []flitRun{
	{flit.SelectOblivious, 0.3}, {flit.SelectAdaptiveK, 0.3},
	{flit.SelectOblivious, 0.9}, {flit.SelectAdaptiveK, 0.9},
}

func (r flitRun) light() bool { return r.load < 0.5 }

// flitStats are the simulated statistics of one run. A change that
// only speeds the simulator up must leave every one identical.
type flitStats struct {
	Selector      string  `json:"selector"`
	Load          float64 `json:"load"`
	Throughput    float64 `json:"throughput"`
	AvgDelay      float64 `json:"avg_delay_cycles"`
	FlitsEjected  int64   `json:"flits_ejected"`
	MsgsCompleted int64   `json:"msgs_completed"`
	VCStalls      int64   `json:"vc_stalls"`
}

func statsOf(run flitRun, res flit.Result) flitStats {
	return flitStats{run.selector.String(), run.load, res.Throughput, res.AvgDelay, res.FlitsEjected, res.MsgsCompleted, res.VCStalls}
}

// flitState is the flit-paper workload's set-up: the Table 1 fabric,
// its disjoint K=4 routing compiled and hydrated into one route table
// shared by every run, and the derangement.
type flitState struct {
	spec            xgft
	topo            *topology.Topology
	routing         *core.Routing
	routes          *flit.RouteTable
	pattern         *traffic.PermutationPattern
	warmup, measure int64
}

func newFlitState(c *runCtx) *flitState {
	s := &flitState{spec: xgft{3, []int{4, 4, 8}, []int{1, 4, 4}}, warmup: 5000, measure: 200000}
	if c.smoke {
		s.spec = xgft{2, []int{4, 4}, []int{1, 4}}
		s.warmup, s.measure = 1000, 8000
	}
	s.topo = s.spec.build()
	s.routing = core.NewRouting(s.topo, core.Disjoint{}, 4, 0)
	comp, err := core.CompileRouting(s.routing, flow.DefaultCompileBudget)
	if err != nil {
		panic(err)
	}
	// The derangement is part of the workload, not of the seeded input:
	// which pairs collide decides where the fabric saturates, and with
	// it how far the saturated runs' backlog (and the process's memory)
	// grows. The run's seed drives the arrivals.
	n := s.topo.NumProcessors()
	s.pattern = traffic.NewPermutationPattern("derangement", traffic.RandomDerangementish(n, stats.Stream(goldenSeed, 0)))
	s.routes = hydrate(s.routing, comp, s.pattern)
	return s
}

// hydrate builds the shared route table and expands every pair the
// pattern uses, so no measured run pays for first-use expansion.
func hydrate(r *core.Routing, comp *core.CompiledRouting, p *traffic.PermutationPattern) *flit.RouteTable {
	rt := flit.NewRouteTable(r, comp)
	for src, dst := range p.Perm {
		rt.RoutesFor(src, dst)
		rt.PathIndicesFor(src, dst)
	}
	return rt
}

func (s *flitState) config(c *runCtx, run flitRun) flit.Config {
	return flit.Config{
		Routing: s.routing, Pattern: s.pattern, OfferedLoad: run.load,
		WarmupCycles: s.warmup, MeasureCycles: s.measure, Seed: c.seed,
		Routes: s.routes, Selector: run.selector,
	}
}

// lightReps is how often a round repeats each light-load run: one
// takes about a second, too short to time once. The host time of a
// light run is the median over its repeats.
const lightReps = 3

// round runs the four simulations in order, each under a span when the
// tracer is on, and returns their results and host times.
func (s *flitState) round(c *runCtx, parent int32) ([]flit.Result, []time.Duration) {
	results := make([]flit.Result, len(flitRuns))
	times := make([]time.Duration, len(flitRuns))
	for i, run := range flitRuns {
		reps := 1
		if run.light() {
			reps = lightReps
		}
		secs := make([]float64, reps)
		for rep := range secs {
			runtime.GC() // as testing.B does before a timed run
			sp := c.tr.begin(parent, layerFlit, fmt.Sprintf("flit.run.%s@%g", run.selector, run.load))
			t0 := time.Now()
			res, err := flit.Run(s.config(c, run))
			secs[rep] = time.Since(t0).Seconds()
			c.tr.end(sp)
			if err != nil {
				panic(err)
			}
			if rep > 0 && !reflect.DeepEqual(res, results[i]) {
				c.check("repeated run simulates identically", false, "%s at load %g", run.selector, run.load)
			}
			results[i] = res
			c.ops++
			if res.Wedged {
				c.failed++
			}
		}
		times[i] = time.Duration(median(secs) * float64(time.Second))
	}
	return results, times
}

// rates returns simulated cycles per host second over the light and
// over the saturated runs of one round.
func (s *flitState) rates(times []time.Duration) (light, sat float64) {
	var lt, st time.Duration
	for i, run := range flitRuns {
		if run.light() {
			lt += times[i]
		} else {
			st += times[i]
		}
	}
	cycles := float64(2 * (s.warmup + s.measure))
	return cycles / lt.Seconds(), cycles / st.Seconds()
}

func runFlitPaper(c *runCtx) error {
	var s *flitState
	c.setup(func() { s = newFlitState(c) }, func() {})

	reg := obs.Default()
	snap0, mem0 := reg.Snapshot(), readMem()
	start := time.Now()
	var lights, sats []float64
	var results []flit.Result
	var times []time.Duration
	var longest time.Duration
	for {
		r0 := time.Now()
		res, ts := s.round(c, 0)
		if results != nil && !reflect.DeepEqual(results, res) {
			c.check("rounds simulate identically", false, "a repeated round changed a simulated statistic")
		}
		results, times = res, ts
		l, st := s.rates(ts)
		lights, sats = append(lights, l), append(sats, st)
		if d := time.Since(r0); d > longest {
			longest = d
		}
		if !c.fits(time.Since(start), longest) {
			break
		}
	}
	wall := time.Since(start)
	delta, mem := reg.Delta(snap0), memSince(mem0)

	c.setMedian("e2e.cycles_per_s_light", lights)
	c.setMedian("e2e.cycles_per_s_sat", sats)
	c.set("nominal_per_s", c.values["e2e.cycles_per_s_light"])
	c.set("stressed_per_s", c.values["e2e.cycles_per_s_sat"])
	got := make([]flitStats, len(flitRuns))
	for i, run := range flitRuns {
		got[i] = statsOf(run, results[i])
	}
	s.checkResults(c, results, got)
	if c.golden {
		if err := writeGolden(got); err != nil {
			return err
		}
		c.note("golden rewritten: %s", goldenPath)
	}
	if !c.traced {
		return nil
	}

	rounds := float64(len(lights))
	var stalls, flits, msgs int64
	for _, res := range results {
		stalls, flits, msgs = stalls+res.VCStalls, flits+res.FlitsEjected, msgs+res.MsgsCompleted
	}
	c.set("flit.vc_stalls", float64(stalls))
	c.set("flit.flits_ejected", float64(flits))
	c.set("flit.msgs_completed", float64(msgs))
	c.set("flit.inj_heap_depth_max", counter(delta, "flit.inj_heap_depth_max"))
	c.set("flit.throughput.sat", results[2].Throughput)
	c.set("flit.avg_delay_cycles.light", results[0].AvgDelay)
	cyc := float64(s.warmup + s.measure)
	perCycle := func(i int) float64 { return float64(times[i].Nanoseconds()) / cyc }
	c.set("flit.ns_per_cycle.light", (perCycle(0)+perCycle(1))/2)
	c.set("flit.ns_per_cycle.sat", (perCycle(2)+perCycle(3))/2)
	c.set("flit.ns_per_flit.light", float64((times[0]+times[1]).Nanoseconds())/float64(results[0].FlitsEjected+results[1].FlitsEjected))
	c.set("flit.ns_per_flit.sat", float64((times[2]+times[3]).Nanoseconds())/float64(results[2].FlitsEjected+results[3].FlitsEjected))
	c.set("flit.adaptivek_overhead", perCycle(3)/perCycle(2))
	c.setRuntime(mem)

	c.tr = newTracer()
	t0 := time.Now()
	root := c.tr.begin(0, layerDriver, "flit-paper")
	replay, _ := s.round(c, root)
	c.tr.end(root)
	tracedWall := time.Since(t0)
	sum := c.tr.summarize()
	c.check("traced results == untraced", reflect.DeepEqual(results, replay), "%d runs, every flit.Result field", len(replay))
	c.set("trace.coverage", sum.coverage)
	c.check("trace.coverage >= 0.9", sum.coverage >= 0.9, "%.3f", sum.coverage)
	c.set("trace.overhead", tracedWall.Seconds()/(wall.Seconds()/rounds)-1)

	s.probes(c)
	var err error
	c.traceOut, err = c.tr.write(outDir, c.workload, c.seed)
	return err
}

// checkResults applies the invariants every seed must satisfy and, for
// the recorded seed at full scale, compares with the golden file.
func (s *flitState) checkResults(c *runCtx, results []flit.Result, got []flitStats) {
	wedged, tracks := 0, true
	tol := 0.01
	if c.smoke {
		tol = 0.05 // a 16-node fabric over 8k cycles is a small sample
	}
	for i, run := range flitRuns {
		if results[i].Wedged {
			wedged++
		}
		if run.light() && math.Abs(results[i].Throughput-run.load) > tol*run.load {
			tracks = false
		}
	}
	c.check("no run wedged", wedged == 0, "%d of %d", wedged, len(results))
	c.check("light load accepted within 1% of offered", tracks, "oblivious %.5f adaptive-K %.5f at offered 0.3",
		results[0].Throughput, results[1].Throughput)
	if c.smoke || c.seed != goldenSeed || c.golden {
		return
	}
	var want []flitStats
	if err := json.Unmarshal(flitGoldenJSON, &want); err != nil {
		c.check("simulated statistics == golden", false, "golden file unreadable: %v", err)
		return
	}
	c.check("simulated statistics == golden", reflect.DeepEqual(got, want), "%d runs x 5 statistics", len(got))
}

func writeGolden(got []flitStats) error {
	data, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

func (s *flitState) probes(c *runCtx) {
	c.set("topology.build_ms", 1e3*medianSeconds(func() { s.spec.build().NewLinkExpander() }))
	var comp *core.CompiledRouting
	var err error
	secs := medianSeconds(func() {
		if comp, err = core.CompileRouting(s.routing, flow.DefaultCompileBudget); err != nil {
			panic(err)
		}
	})
	c.set("core.compile_s", secs)
	c.set("core.compile_mbps", float64(comp.Bytes())/1e6/secs)
	c.set("flit.route_hydrate_ms", 1e3*medianSeconds(func() { hydrate(s.routing, comp, s.pattern) }))

	cfg := s.config(c, flitRuns[0])
	m0 := readMem()
	if _, err := flit.Run(cfg); err != nil {
		panic(err)
	}
	c.set("flit.allocs_per_run", memSince(m0).mallocs)
}
