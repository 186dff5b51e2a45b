// Command xgftpaper regenerates the tables and figures of "Limited
// Multi-path Routing on Extended Generalized Fat-trees" (IPDPS
// Workshops 2012): the four Figure 4 panels (flow-level average
// maximum link load vs K), Table 1 (flit-level saturation throughput),
// Figure 5 (message delay vs offered load), the Theorem 1/2
// verifications and the ablations documented in DESIGN.md.
//
// Usage:
//
//	xgftpaper -exp all -scale quick -out results/
//	xgftpaper -exp fig4a,table1 -scale full
//
// Each experiment prints an aligned text table and, when -out is set,
// writes a CSV with the same data. With -out the run also writes a
// manifest.json recording the tool version, flags, seeds, workers, and
// each experiment's wall-clock and metrics snapshot, so a results
// directory says exactly what produced it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"xgftsim/internal/adversary"
	"xgftsim/internal/cliutil"
	"xgftsim/internal/experiments"
	"xgftsim/internal/loadgen"
	"xgftsim/internal/obs"
	"xgftsim/internal/serve/churn"
	"xgftsim/internal/topology"
)

var order = []string{
	"fig4a", "fig4b", "fig4c", "fig4d",
	"table1", "fig5", "failures",
	"thm1", "thm2",
	"tier", "lid", "diversity", "workload",
	"adaptive", "alltoall", "worstcase", "model", "crossover", "buffers", "vcs",
	"adaptivek", "churnsoak", "servebench", "mega",
}

// aliases expand shorthand experiment names; members must be in order.
var aliases = map[string][]string{
	"fig4": {"fig4a", "fig4b", "fig4c", "fig4d"},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable arguments and streams, so the flag
// validation, experiment selection and manifest behavior are testable
// in-process. It returns the process exit status: 0 on success, 1 on a
// runtime failure, 2 on a usage error.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xgftpaper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiments: "+strings.Join(order, ",")+", fig4 (=fig4a-d) or all")
	scaleName := fs.String("scale", "quick", "sampling scale: "+experiments.ScaleHelp())
	out := fs.String("out", "", "directory for CSV output and manifest.json (created if missing)")
	seed := fs.Int64("seed", 2012, "base seed for sampled workloads")
	flitSeeds := fs.Int("flit-seeds", 0, "override the scale's flit-level workload seed count (0 = scale default)")
	workers := fs.Int("workers", 0, "max concurrent experiment cells (0 = GOMAXPROCS)")
	tf := cliutil.AddTableFlags(fs)
	prof := cliutil.AddProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	usage := func(err error) int {
		fmt.Fprintln(stderr, "xgftpaper:", err)
		fs.Usage()
		return 2
	}
	if *workers < 0 {
		return usage(fmt.Errorf("-workers %d is invalid: want 0 (= GOMAXPROCS) or a positive cell bound", *workers))
	}
	if *flitSeeds < 0 {
		return usage(fmt.Errorf("-flit-seeds %d is invalid: want 0 (= scale default) or a positive seed count", *flitSeeds))
	}
	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return usage(err)
	}
	if *flitSeeds > 0 {
		scale.FlitSeeds = *flitSeeds
	}
	scale.Workers = *workers

	// The first SIGINT/SIGTERM cancels the sweep between cells: the run
	// unwinds, seals the manifest with exit_status "interrupted" and
	// exits 130. stop() restores the default disposition once the
	// context fires, so a second signal kills the process immediately.
	ctx, stop := cliutil.WithInterrupt(context.Background())
	defer stop()
	scale.Ctx = ctx
	selected, err := selectExperiments(*exp)
	if err != nil {
		return usage(err)
	}

	if err := prof.Start(); err != nil {
		fmt.Fprintln(stderr, "xgftpaper:", err)
		return 1
	}
	defer prof.Stop()

	var man *cliutil.Manifest
	var runnerLog *os.File
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "xgftpaper:", err)
			return 1
		}
		f, err := os.OpenFile(filepath.Join(*out, "runner.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "xgftpaper:", err)
			return 1
		}
		defer f.Close()
		runnerLog = f
		man = cliutil.NewManifest("xgftpaper")
		man.Flags = cliutil.FlagValues(fs)
		man.Scale = scale.Name
		man.Seed = *seed
		man.Workers = scale.Workers
		tf.Stamp(man)
	}
	// finish seals and writes the manifest on every exit path, so even a
	// crashed sweep leaves a record of what ran and what failed.
	finish := func(status int, err error) int {
		if man != nil {
			man.Finish(status, err)
			if werr := man.WriteFile(*out); werr != nil {
				fmt.Fprintln(stderr, "xgftpaper:", werr)
				if status == 0 {
					status = 1
				}
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "xgftpaper:", err)
		}
		return status
	}

	reg := obs.Default()
	for _, name := range selected {
		if ctx.Err() != nil {
			return finish(130, fmt.Errorf("%w before experiment %s", cliutil.ErrInterrupted, name))
		}
		before := reg.Snapshot()
		start := time.Now()
		tbl, perr := runCaptured(name, scale, *seed, tf.Options())
		elapsed := time.Since(start).Seconds()
		if errors.Is(perr, experiments.ErrInterrupted) {
			if man != nil {
				man.Experiments = append(man.Experiments, cliutil.ExperimentRecord{
					Name: name, WallSeconds: elapsed, Metrics: reg.Delta(before),
				})
			}
			return finish(130, fmt.Errorf("%w during experiment %s", cliutil.ErrInterrupted, name))
		}
		if perr != nil {
			if runnerLog != nil {
				fmt.Fprintf(runnerLog, "%s exp=%s scale=%s seed=%d PANIC: %v\n",
					time.Now().Format(time.RFC3339), name, scale.Name, *seed, perr)
			}
			if man != nil {
				man.Experiments = append(man.Experiments, cliutil.ExperimentRecord{
					Name: name, WallSeconds: elapsed, Metrics: reg.Delta(before),
				})
			}
			return finish(1, perr)
		}
		tbl.Render(stdout)
		fmt.Fprintf(stdout, "  [%s, scale=%s, %.1fs]\n\n", name, scale.Name, elapsed)
		if runnerLog != nil {
			fmt.Fprintf(runnerLog, "%s exp=%s scale=%s workers=%d seed=%d wall=%.1fs\n",
				time.Now().Format(time.RFC3339), name, scale.Name, scale.Workers, *seed, elapsed)
		}
		rec := cliutil.ExperimentRecord{Name: name, WallSeconds: elapsed}
		if *out != "" {
			path := filepath.Join(*out, name+".csv")
			f, err := os.Create(path)
			if err != nil {
				return finish(1, err)
			}
			if err := tbl.WriteCSV(f); err != nil {
				f.Close()
				return finish(1, err)
			}
			if err := f.Close(); err != nil {
				return finish(1, err)
			}
			fmt.Fprintf(stdout, "  wrote %s\n\n", path)
			rec.CSV = name + ".csv"
		}
		if man != nil {
			rec.Metrics = reg.Delta(before)
			man.Experiments = append(man.Experiments, rec)
		}
	}
	if err := prof.Stop(); err != nil {
		return finish(1, err)
	}
	return finish(0, nil)
}

// selectExperiments parses the -exp list: "all" selects everything,
// aliases expand (fig4 = the four panels), and duplicates — whether
// re-listed literally or introduced by an alias — are dropped while
// preserving first-occurrence order, so no experiment runs (and
// overwrites its CSVs) twice in one invocation.
func selectExperiments(exp string) ([]string, error) {
	if strings.TrimSpace(exp) == "all" {
		return order, nil
	}
	var selected []string
	seen := make(map[string]bool)
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			selected = append(selected, name)
		}
	}
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		if expansion, ok := aliases[name]; ok {
			for _, n := range expansion {
				add(n)
			}
			continue
		}
		if !contains(order, name) {
			return nil, fmt.Errorf("unknown experiment %q (want %s, fig4 or all)", name, strings.Join(order, ","))
		}
		add(name)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("empty -exp selection")
	}
	return selected, nil
}

// runCaptured converts a panicking experiment into an error carrying
// the failing cell's coordinates and stack, so a crashed sweep leaves
// a diagnosable trail in runner.log instead of a bare crash.
func runCaptured(name string, scale experiments.Scale, seed int64, topt experiments.TableOptions) (tbl *experiments.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			if cp, ok := p.(*experiments.CellPanic); ok {
				err = fmt.Errorf("experiment %s: %w", name, cp)
			} else {
				err = fmt.Errorf("experiment %s panicked: %v\n%s", name, p, debug.Stack())
			}
		}
	}()
	return run(name, scale, seed, topt)
}

func run(name string, scale experiments.Scale, seed int64, topt experiments.TableOptions) (*experiments.Table, error) {
	switch name {
	case "fig4a", "fig4b", "fig4c", "fig4d":
		t, err := experiments.Fig4Panel(name[len(name)-1:])
		if err != nil {
			return nil, err
		}
		return experiments.Fig4(t, scale, seed), nil
	case "table1":
		return experiments.Table1(scale), nil
	case "fig5":
		return experiments.Fig5(scale), nil
	case "failures":
		return experiments.Failures(scale, seed), nil
	case "thm1":
		return experiments.Theorem1(scale, seed), nil
	case "thm2":
		return experiments.Theorem2(), nil
	case "tier":
		return experiments.TierBalance(scale, 4, seed), nil
	case "lid":
		return experiments.LIDBudget(), nil
	case "diversity":
		return experiments.EffectiveDiversity(4), nil
	case "workload":
		return experiments.WorkloadSensitivity(scale), nil
	case "adaptive":
		return experiments.AdaptiveComparison(scale), nil
	case "model":
		return experiments.ModelValidation(scale), nil
	case "crossover":
		return experiments.DelayCrossover(scale), nil
	case "buffers":
		return experiments.BufferDepth(scale), nil
	case "vcs":
		return experiments.VirtualChannelDepth(scale), nil
	case "adaptivek":
		return experiments.AdaptiveK(scale), nil
	case "churnsoak":
		return churn.Soak(scale, seed)
	case "servebench":
		return loadgen.ServeBench(scale, seed)
	case "mega":
		return experiments.Mega(scale, seed, topt)
	case "alltoall":
		t, err := topology.FromPaper(topology.Paper8Port3Tree)
		if err != nil {
			return nil, err
		}
		return experiments.AllToAllShift(t, []int{1, 2, 4, 8, 16}), nil
	case "worstcase":
		t, err := topology.FromPaper(topology.Paper8Port2Tree)
		if err != nil {
			return nil, err
		}
		steps := 1500
		if scale.Name == "full" || scale.Name == "paper" {
			steps = 4000
		}
		return experiments.WorstCaseSearch(t, []int{1, 2, 4}, adversary.Config{Steps: steps, Restarts: 3, Seed: seed}), nil
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
