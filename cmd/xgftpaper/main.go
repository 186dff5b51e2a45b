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
	"bytes"
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

// experiment is one row of the registry: the -exp name, the alias
// that also selects it (empty for none), and the run that builds its
// table. The run carries the experiment's fixed inputs.
type experiment struct {
	name, alias string
	run         runFunc
}

// runFunc builds a table from the sampling scale, the base seed and
// the routing-table policy.
type runFunc func(sc experiments.Scale, seed int64, topt experiments.TableOptions) (*experiments.Table, error)

// registry lists every experiment in the order -exp all runs them.
var registry = []experiment{
	{name: "fig4a", alias: "fig4", run: fig4Panel("a")},
	{name: "fig4b", alias: "fig4", run: fig4Panel("b")},
	{name: "fig4c", alias: "fig4", run: fig4Panel("c")},
	{name: "fig4d", alias: "fig4", run: fig4Panel("d")},
	{name: "table1", run: scaled(experiments.Table1)},
	{name: "fig5", run: scaled(experiments.Fig5)},
	{name: "failures", run: seeded(experiments.Failures)},
	{name: "thm1", run: seeded(experiments.Theorem1)},
	{name: "thm2", run: fixed(experiments.Theorem2)},
	{name: "tier", run: seeded(func(sc experiments.Scale, seed int64) *experiments.Table {
		return experiments.TierBalance(sc, 4, seed)
	})},
	{name: "lid", run: fixed(experiments.LIDBudget)},
	{name: "diversity", run: fixed(func() *experiments.Table { return experiments.EffectiveDiversity(4) })},
	{name: "workload", run: scaled(experiments.WorkloadSensitivity)},
	{name: "adaptive", run: scaled(experiments.AdaptiveComparison)},
	{name: "alltoall", run: onPaper(topology.Paper8Port3Tree, func(t *topology.Topology, _ experiments.Scale, _ int64) *experiments.Table {
		return experiments.AllToAllShift(t, []int{1, 2, 4, 8, 16})
	})},
	{name: "worstcase", run: onPaper(topology.Paper8Port2Tree, func(t *topology.Topology, sc experiments.Scale, seed int64) *experiments.Table {
		steps := 1500
		if sc.Name == "full" || sc.Name == "paper" {
			steps = 4000
		}
		return experiments.WorstCaseSearch(t, []int{1, 2, 4}, adversary.Config{Steps: steps, Restarts: 3, Seed: seed})
	})},
	{name: "model", run: scaled(experiments.ModelValidation)},
	{name: "crossover", run: scaled(experiments.DelayCrossover)},
	{name: "buffers", run: scaled(experiments.BufferDepth)},
	{name: "vcs", run: scaled(experiments.VirtualChannelDepth)},
	{name: "adaptivek", run: scaled(experiments.AdaptiveK)},
	{name: "churnsoak", run: func(sc experiments.Scale, seed int64, _ experiments.TableOptions) (*experiments.Table, error) {
		return churn.Soak(sc, seed)
	}},
	{name: "servebench", run: func(sc experiments.Scale, seed int64, _ experiments.TableOptions) (*experiments.Table, error) {
		return loadgen.ServeBench(sc, seed)
	}},
	{name: "mega", run: experiments.Mega},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable arguments and streams, so the flag
// validation, experiment selection and manifest behavior are testable
// in-process. It returns the process exit status: 0 on success, 1 on a
// runtime failure, 2 on a usage error, 130 when interrupted.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xgftpaper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiments: "+expHelp())
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
	selected, err := selectExperiments(*exp)
	if err != nil {
		return usage(err)
	}

	// The first SIGINT/SIGTERM cancels the sweep between cells: the run
	// unwinds, seals the manifest with exit_status "interrupted" and
	// exits 130. A second signal kills the process immediately.
	ctx, stop := cliutil.WithInterrupt(context.Background())
	defer stop()
	scale.Ctx = ctx

	run := cliutil.NewRun("xgftpaper", fs, *out, prof, stderr)
	man := run.Manifest
	man.Scale = scale.Name
	man.Seed = *seed
	man.Workers = scale.Workers
	tf.Stamp(man)
	if err := run.Start(); err != nil {
		return run.Finish(1, err)
	}
	var runnerLog io.Writer = io.Discard
	if *out != "" {
		f, err := os.OpenFile(filepath.Join(*out, "runner.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return run.Finish(1, err)
		}
		defer f.Close()
		runnerLog = f
	}

	reg := obs.Default()
	for _, e := range selected {
		if ctx.Err() != nil {
			return run.Finish(130, fmt.Errorf("%w before experiment %s", cliutil.ErrInterrupted, e.name))
		}
		before := reg.Snapshot()
		start := time.Now()
		tbl, perr := runCaptured(e, scale, *seed, tf.Options())
		rec := cliutil.ExperimentRecord{Name: e.name, WallSeconds: time.Since(start).Seconds()}
		if perr != nil {
			rec.Metrics = reg.Delta(before)
			man.Experiments = append(man.Experiments, rec)
			if errors.Is(perr, experiments.ErrInterrupted) {
				return run.Finish(130, fmt.Errorf("%w during experiment %s", cliutil.ErrInterrupted, e.name))
			}
			fmt.Fprintf(runnerLog, "%s exp=%s scale=%s seed=%d PANIC: %v\n",
				time.Now().Format(time.RFC3339), e.name, scale.Name, *seed, perr)
			return run.Finish(1, perr)
		}
		tbl.Render(stdout)
		fmt.Fprintf(stdout, "  [%s, scale=%s, %.1fs]\n\n", e.name, scale.Name, rec.WallSeconds)
		fmt.Fprintf(runnerLog, "%s exp=%s scale=%s workers=%d seed=%d wall=%.1fs\n",
			time.Now().Format(time.RFC3339), e.name, scale.Name, scale.Workers, *seed, rec.WallSeconds)
		if *out != "" {
			var csv bytes.Buffer
			tbl.WriteCSV(&csv) // writes to a bytes.Buffer cannot fail
			path := filepath.Join(*out, e.name+".csv")
			if err := os.WriteFile(path, csv.Bytes(), 0o666); err != nil {
				return run.Finish(1, err)
			}
			fmt.Fprintf(stdout, "  wrote %s\n\n", path)
			rec.CSV = e.name + ".csv"
		}
		rec.Metrics = reg.Delta(before)
		man.Experiments = append(man.Experiments, rec)
	}
	return run.Finish(0, nil)
}

// expHelp names every registry row, each alias with its members, and
// all.
func expHelp() string {
	var names, aliases []string
	members := map[string][]string{}
	for _, e := range registry {
		names = append(names, e.name)
		if e.alias != "" {
			if members[e.alias] == nil {
				aliases = append(aliases, e.alias)
			}
			members[e.alias] = append(members[e.alias], e.name)
		}
	}
	for _, a := range aliases {
		names = append(names, a+" (="+strings.Join(members[a], ",")+")")
	}
	return strings.Join(names, ",") + " or all"
}

// selectExperiments parses the -exp list: "all" selects every registry
// row, an alias selects its rows (fig4 = the four panels), and
// duplicates — whether re-listed literally or introduced by an alias —
// are dropped while preserving first-occurrence order, so no
// experiment runs (and overwrites its CSVs) twice in one invocation.
func selectExperiments(exp string) ([]experiment, error) {
	if strings.TrimSpace(exp) == "all" {
		return registry, nil
	}
	var selected []experiment
	seen := make(map[string]bool)
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, e := range registry {
			if name != e.name && (e.alias == "" || name != e.alias) {
				continue
			}
			found = true
			if !seen[e.name] {
				seen[e.name] = true
				selected = append(selected, e)
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment %q (want %s)", name, expHelp())
		}
	}
	return selected, nil
}

// runCaptured converts a panicking experiment into an error carrying
// the failing cell's coordinates and stack, so a crashed sweep leaves
// a diagnosable trail in runner.log instead of a bare crash.
func runCaptured(e experiment, scale experiments.Scale, seed int64, topt experiments.TableOptions) (tbl *experiments.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			if cp, ok := p.(*experiments.CellPanic); ok {
				err = fmt.Errorf("experiment %s: %w", e.name, cp)
			} else {
				err = fmt.Errorf("experiment %s panicked: %v\n%s", e.name, p, debug.Stack())
			}
		}
	}()
	return e.run(scale, seed, topt)
}

// The adapters below fit the builders' signatures to a registry run.

// fig4Panel runs one Figure 4 panel.
func fig4Panel(panel string) runFunc {
	return func(sc experiments.Scale, seed int64, _ experiments.TableOptions) (*experiments.Table, error) {
		t, err := experiments.Fig4Panel(panel)
		if err != nil {
			return nil, err
		}
		return experiments.Fig4(t, sc, seed), nil
	}
}

// onPaper runs build on one of the paper's fabrics.
func onPaper(name topology.PaperTopology, build func(*topology.Topology, experiments.Scale, int64) *experiments.Table) runFunc {
	return func(sc experiments.Scale, seed int64, _ experiments.TableOptions) (*experiments.Table, error) {
		t, err := topology.FromPaper(name)
		if err != nil {
			return nil, err
		}
		return build(t, sc, seed), nil
	}
}

// seeded runs a builder that reads the scale and the base seed.
func seeded(build func(experiments.Scale, int64) *experiments.Table) runFunc {
	return func(sc experiments.Scale, seed int64, _ experiments.TableOptions) (*experiments.Table, error) {
		return build(sc, seed), nil
	}
}

// scaled runs a builder that reads only the scale.
func scaled(build func(experiments.Scale) *experiments.Table) runFunc {
	return seeded(func(sc experiments.Scale, _ int64) *experiments.Table { return build(sc) })
}

// fixed runs a builder with no sampled input.
func fixed(build func() *experiments.Table) runFunc {
	return seeded(func(experiments.Scale, int64) *experiments.Table { return build() })
}
