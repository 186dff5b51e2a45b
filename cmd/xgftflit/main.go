// Command xgftflit runs the flit-level virtual cut-through simulator:
// a single run at one offered load, or a load sweep reporting delay,
// accepted throughput and the saturation point.
//
// Usage:
//
//	xgftflit -mport 8 -ntree 3 -scheme disjoint -k 8 -load 0.6
//	xgftflit -mport 8 -ntree 3 -scheme d-mod-k -sweep
//	xgftflit -xgft "2;8,16;1,8" -scheme shift-1 -k 2 -sweep -workload uniform
//
// With -out DIR the run writes DIR/manifest.json (tool version, flags,
// headline results, metrics snapshot); -cpuprofile/-memprofile/-trace
// capture profiles of the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xgftsim/internal/cliutil"
	"xgftsim/internal/core"
	"xgftsim/internal/flit"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command and returns its exit status: 2 for a usage
// error (a bad flag, topology, scheme, workload, path policy, selector
// or VC scheme), 1 for a failed run, 130 for an interrupted one.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xgftflit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("xgft", "", `topology as "h;m1,..,mh;w1,..,wh"`)
	mport := fs.Int("mport", 0, "build an m-port n-tree (with -ntree)")
	ntree := fs.Int("ntree", 0, "tree height for -mport")
	scheme := fs.String("scheme", "disjoint", "routing scheme ("+strings.Join(core.SelectorNames(), ", ")+")")
	k := fs.Int("k", 4, "path limit K")
	load := fs.Float64("load", 0.5, "offered load in (0,1] for a single run")
	sweep := fs.Bool("sweep", false, "sweep offered loads 0.05..1.00")
	workload := fs.String("workload", "assignment", "assignment (fixed random src->dst map) | uniform (fresh destination per message) | shift")
	arg := fs.Int("arg", 1, "workload argument (shift amount)")
	flits := fs.Int("flits", 8, "flits per packet")
	packets := fs.Int("packets", 4, "packets per message")
	buf := fs.Int("buf", 4, "buffer capacity in packets per port")
	warmup := fs.Int64("warmup", 10000, "warmup cycles")
	measure := fs.Int64("measure", 30000, "measurement cycles")
	seed := fs.Int64("seed", 2012, "simulation seed")
	policy := fs.String("policy", "round-robin", "per-message path policy: round-robin | random")
	adaptive := fs.Bool("adaptive", false, "use minimal adaptive routing instead of the oblivious scheme")
	selector := fs.String("selector", "", "output selection: oblivious | adaptive | adaptive-k (overrides -adaptive)")
	vcs := fs.Int("vcs", 1, "virtual channels per link (the paper uses 1)")
	vcScheme := fs.String("vcscheme", "rr-injection", "VC assignment: rr-injection | dest-subtree | down-digit")
	burst := fs.Float64("burst", 1, "mean burst size for bursty Poisson arrivals (1 = plain Poisson)")
	out := fs.String("out", "", "directory for manifest.json (created if missing)")
	prof := cliutil.AddProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Every flag value is resolved before the run record exists, so a
	// bad one is a usage error that writes no manifest.
	usage := func(err error) int {
		fmt.Fprintln(stderr, "xgftflit:", err)
		return 2
	}
	t, err := cliutil.BuildTopology(*spec, *mport, *ntree)
	if err != nil {
		return usage(err)
	}
	sel, err := core.SelectorByName(*scheme)
	if err != nil {
		return usage(err)
	}
	pattern, err := buildPattern(t, *workload, *arg, *seed)
	if err != nil {
		return usage(err)
	}
	pp, err := flit.ParsePathPolicy(*policy)
	if err != nil {
		return usage(err)
	}
	var outSel flit.OutputSelector
	if *selector != "" {
		if outSel, err = flit.ParseOutputSelector(*selector); err != nil {
			return usage(err)
		}
	}
	vcSch, err := flit.ParseVCScheme(*vcScheme)
	if err != nil {
		return usage(err)
	}

	run := cliutil.NewRun("xgftflit", fs, *out, prof, stderr)
	run.Manifest.Seed = *seed
	if err := run.Start(); err != nil {
		return run.Finish(1, err)
	}
	stop := run.WatchInterrupt()
	defer stop()

	base := flit.Config{
		Routing:           core.NewRouting(t, sel, *k, *seed),
		Pattern:           pattern,
		OfferedLoad:       *load,
		FlitsPerPacket:    *flits,
		PacketsPerMessage: *packets,
		BufferPackets:     *buf,
		WarmupCycles:      *warmup,
		MeasureCycles:     *measure,
		Seed:              *seed,
		PathPolicy:        pp,
		Adaptive:          *adaptive,
		Selector:          outSel,
		VCScheme:          vcSch,
		BurstMean:         *burst,
		VirtualChannels:   *vcs,
		DelayHistogram:    true,
	}
	fmt.Fprintf(stdout, "%s, routing %s, workload %s, packet %d flits, message %d packets, buffers %d\n",
		t, base.Routing, pattern.Name(), *flits, *packets, *buf)

	if !*sweep {
		res, err := flit.Run(base)
		if err != nil {
			return run.Finish(1, err)
		}
		fmt.Fprintf(stdout, "offered %.3f: accepted %.4f, delay %.1f cycles (p95 %.0f), %d/%d messages, saturated=%v\n",
			res.OfferedLoad, res.Throughput, res.AvgDelay, res.P95Delay,
			res.MsgsCompleted, res.MsgsGenerated, res.Saturated)
		run.Manifest.Results = map[string]any{
			"offered_load":   res.OfferedLoad,
			"throughput":     res.Throughput,
			"avg_delay":      res.AvgDelay,
			"p95_delay":      res.P95Delay,
			"msgs_completed": res.MsgsCompleted,
			"msgs_generated": res.MsgsGenerated,
			"vc_stalls":      res.VCStalls,
			"saturated":      res.Saturated,
		}
		return run.Finish(0, nil)
	}
	results, err := flit.Sweep(flit.SweepConfig{Base: base})
	if err != nil {
		return run.Finish(1, err)
	}
	fmt.Fprintf(stdout, "%8s %10s %12s %10s %10s\n", "load", "accepted", "delay(cyc)", "p95", "saturated")
	for _, r := range results {
		fmt.Fprintf(stdout, "%8.2f %10.4f %12.1f %10.0f %10v\n",
			r.OfferedLoad, r.Throughput, r.AvgDelay, r.P95Delay, r.Saturated)
	}
	fmt.Fprintf(stdout, "max throughput %.4f, saturation at load %.2f\n",
		flit.MaxThroughput(results), flit.SaturationLoad(results))
	run.Manifest.Results = map[string]any{
		"sweep_points":    len(results),
		"max_throughput":  flit.MaxThroughput(results),
		"saturation_load": flit.SaturationLoad(results),
	}
	return run.Finish(0, nil)
}

func buildPattern(t *topology.Topology, workload string, arg int, seed int64) (traffic.Pattern, error) {
	n := t.NumProcessors()
	switch workload {
	case "assignment":
		rng := stats.Stream(seed, 31)
		return traffic.NewPermutationPattern("assignment", traffic.RandomDerangementish(n, rng)), nil
	case "uniform":
		return traffic.UniformPattern{N: n}, nil
	case "shift":
		return traffic.NewPermutationPattern("shift", traffic.ShiftPermutation(n, arg)), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}
