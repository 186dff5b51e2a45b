// Command xgftflow runs flow-level routing experiments: the maximum
// link load, optimal load and performance ratio of a routing scheme on
// a chosen traffic pattern, or the paper's average-permutation study.
//
// Usage:
//
//	xgftflow -mport 16 -ntree 2 -scheme disjoint -k 4                 # permutation study
//	xgftflow -mport 8 -ntree 3 -scheme d-mod-k -pattern shift -arg 1  # one pattern
//	xgftflow -xgft "2;8,64;1,8" -scheme d-mod-k -pattern adversarial
//
// With -out DIR the run writes DIR/manifest.json (tool version, flags,
// headline results, metrics snapshot); -cpuprofile/-memprofile/-trace
// capture profiles of the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"xgftsim/internal/cliutil"
	"xgftsim/internal/core"
	"xgftsim/internal/flow"
	"xgftsim/internal/stats"
	"xgftsim/internal/traffic"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xgftflow", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("xgft", "", `topology as "h;m1,..,mh;w1,..,wh"`)
	mport := fs.Int("mport", 0, "build an m-port n-tree (with -ntree)")
	ntree := fs.Int("ntree", 0, "tree height for -mport")
	scheme := fs.String("scheme", "disjoint", "routing scheme ("+strings.Join(core.SelectorNames(), ", ")+")")
	k := fs.Int("k", 4, "path limit K")
	pattern := fs.String("pattern", "permutations", "permutations | shift | bitcomp | bitrev | transpose | tornado | neighbor | butterfly | uniform | hotspot | adversarial | random")
	arg := fs.Int("arg", 1, "pattern argument (shift amount, hotspot node)")
	seed := fs.Int64("seed", 2012, "base seed")
	samples := fs.Int("samples", 100, "initial samples for the permutation study")
	maxSamples := fs.Int("max-samples", stats.AdaptiveConfig{}.WithDefaults().MaxSamples, "sample cap for the permutation study")
	precision := fs.Float64("precision", 0.01, "relative confidence-interval target")
	out := fs.String("out", "", "directory for manifest.json (created if missing)")
	budget := fs.Int64("table-budget", flow.DefaultCompileBudget, "routing-table byte budget for the permutation study: each seed's table is compiled when it fits (and the fabric has no more nodes than -max-samples), else paths are derived per sample")
	prof := cliutil.AddProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var man *cliutil.Manifest
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "xgftflow:", err)
			return 1
		}
		man = cliutil.NewManifest("xgftflow")
		man.Flags = cliutil.FlagValues(fs)
		man.Seed = *seed
		man.TableBudget = *budget
	}
	// seal writes the manifest exactly once, whether the run finishes,
	// fails, or is interrupted by a signal racing the normal exit path.
	var sealOnce sync.Once
	seal := func(status *int, err error) {
		sealOnce.Do(func() {
			if man != nil {
				man.Finish(*status, err)
				if werr := man.WriteFile(*out); werr != nil {
					fmt.Fprintln(stderr, "xgftflow:", werr)
					if *status == 0 {
						*status = 1
					}
				}
			}
			if err != nil {
				fmt.Fprintln(stderr, "xgftflow:", err)
			}
		})
	}
	finish := func(status int, err error) int {
		if perr := prof.Stop(); perr != nil && err == nil {
			status, err = 1, perr
		}
		seal(&status, err)
		return status
	}

	// A single evaluation has no cell boundaries to cancel at, so the
	// first SIGINT/SIGTERM seals the manifest with exit_status
	// "interrupted" and exits 130; a second signal (after stop()
	// restores the default disposition) kills the process outright.
	ctx, stop := cliutil.WithInterrupt(context.Background())
	defer stop()
	workDone := make(chan struct{})
	defer close(workDone)
	go func() {
		select {
		case <-workDone:
		case <-ctx.Done():
			select {
			case <-workDone:
				return
			default:
			}
			status := 130
			seal(&status, cliutil.ErrInterrupted)
			os.Exit(status)
		}
	}()

	if err := prof.Start(); err != nil {
		return finish(1, err)
	}

	t, err := cliutil.BuildTopology(*spec, *mport, *ntree)
	if err != nil {
		return finish(1, err)
	}
	sel, err := core.SelectorByName(*scheme)
	if err != nil {
		return finish(1, err)
	}
	fmt.Fprintf(stdout, "%s, routing %s\n", t, core.NewRouting(t, sel, *k, *seed))

	if *pattern == "permutations" {
		res := flow.Experiment{
			Topo: t, Sel: sel, K: *k, PermSeed: *seed,
			Sampling: stats.AdaptiveConfig{
				InitialSamples: *samples, MaxSamples: *maxSamples, RelPrecision: *precision,
			},
			CompileBudget: *budget,
		}.Run()
		fmt.Fprintf(stdout, "average max link load over %d permutations: %.4f ± %.4f (99%% CI, converged=%v)\n",
			res.Acc.N(), res.Acc.Mean(), res.HalfWidth, res.Converged)
		if man != nil {
			man.Results = map[string]any{
				"samples":      res.Acc.N(),
				"avg_max_load": res.Acc.Mean(),
				"half_width":   res.HalfWidth,
				"converged":    res.Converged,
			}
		}
		return finish(0, nil)
	}

	tm, err := traffic.BuildMatrix(t, *pattern, *arg, *seed)
	if err != nil {
		return finish(1, err)
	}
	r := core.NewRouting(t, sel, *k, *seed)
	ev := flow.NewEvaluator(r)
	mload := ev.MaxLoad(tm)
	oload := flow.OptimalLoad(t, tm)
	fmt.Fprintf(stdout, "pattern %s: %d flows, %.1f units\n", *pattern, tm.NumFlows(), tm.Total())
	fmt.Fprintf(stdout, "  MLOAD = %.4f  OLOAD = %.4f  PERF = %.4f\n", mload, oload, mload/oload)
	for tier, pair := range ev.TierLoads() {
		fmt.Fprintf(stdout, "  tier %d-%d max load: up %.3f, down %.3f\n", tier, tier+1, pair[0], pair[1])
	}
	if man != nil {
		man.Results = map[string]any{
			"mload": mload,
			"oload": oload,
			"perf":  mload / oload,
		}
	}
	return finish(0, nil)
}
