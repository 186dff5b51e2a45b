// Command benchmark is the repository's benchmark driver: it generates
// one workload's inputs from a seed, runs the workload in this process,
// checks the outputs, and prints every metric by name with its unit.
// The last line of standard output is one JSON object for the harness
// described in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"xgftsim/internal/stats"
)

// outDir receives traces and scratch files; it lies inside the
// checkout the driver is run from and is git-ignored.
const outDir = "benchmark/out"

// A workload's set-up is built and timed at least setupMinRepeats
// times, and up to setupMaxRepeats while that takes less than
// setupBudget seconds in all; setup_s is the median. Set-ups of a few
// milliseconds need the extra repeats to give a steady median.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 25
	setupBudget     = 0.5
)

// runCtx carries one workload run's arguments and collects its results.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	procs    int
	golden   bool // -update-golden

	tr  *tracer // non-nil only while the traced replay runs
	tmp string  // scratch root, removed at exit

	values   map[string]float64
	ops      int64
	failed   int64
	checks   []checkResult
	samples  map[string]int // sample count behind a median, for the report
	notes    []string
	traceOut string
}

type checkResult struct {
	name   string
	ok     bool
	detail string
}

func (c *runCtx) set(name string, v float64) { c.values[name] = v }

// setMedian records the median of xs under name, with its sample count.
func (c *runCtx) setMedian(name string, xs []float64) {
	c.values[name] = median(xs)
	c.samples[name] = len(xs)
}

func (c *runCtx) check(name string, ok bool, format string, args ...any) {
	c.checks = append(c.checks, checkResult{name, ok, fmt.Sprintf(format, args...)})
}

func (c *runCtx) note(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// tempDir makes a scratch directory under the run's scratch root.
func (c *runCtx) tempDir(prefix string) string {
	dir, err := os.MkdirTemp(c.tmp, prefix)
	if err != nil {
		panic(fmt.Sprintf("benchmark: scratch dir: %v", err))
	}
	return dir
}

// setup builds the workload's state several times, discarding every
// build but the last, and records the median build time as setup_s, so
// that work moved from the measured part into set-up shows.
func (c *runCtx) setup(build func(), discard func()) {
	var times []float64
	var total float64
	for i := 0; i < setupMinRepeats || (i < setupMaxRepeats && total < setupBudget); i++ {
		if i > 0 {
			discard()
		}
		runtime.GC() // each build starts from a collected heap
		t0 := time.Now()
		build()
		d := time.Since(t0).Seconds()
		times = append(times, d)
		total += d
	}
	c.setMedian("setup_s", times)
}

// fits reports whether one more repetition of a protocol fits into the
// run's measuring time, judged by the longest repetition so far. The
// traced run makes one repetition only: it repeats the protocol under
// the tracer anyway.
func (c *runCtx) fits(elapsed, longest time.Duration) bool {
	if c.traced {
		return false
	}
	return (elapsed + longest).Seconds() <= c.seconds
}

// quantile is stats.Quantile, with 0 for an empty sample (a window in
// which every request failed).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	seed := fs.Int64("seed", 2012, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 24, "measuring time: as many whole repetitions of the workload's protocol as fit, at least one")
	trace := fs.Int("trace", 0, "1 repeats the workload under the span tracer and prints the per-layer metrics instead of the end-to-end ones")
	scale := fs.String("scale", "full", "full, or smoke for tiny fabrics (tests)")
	jsonOut := fs.String("json", "", "append this run's record to the JSON array in `file` (input of -compare)")
	updateGolden := fs.Bool("update-golden", false, "rewrite benchmark/golden/flit-paper.json from this run (flit-paper, default seed)")
	compare := fs.Bool("compare", false, "compare two record files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two record files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *scale != "full" && *scale != "smoke" {
		fmt.Fprintf(stderr, "benchmark: unknown scale %q (want full or smoke)\n", *scale)
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	// Load rule: one generator process, GOMAXPROCS = min(nproc, 4);
	// workers and connections never exceed it.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	c := &runCtx{
		workload: w.name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		smoke: *scale == "smoke", procs: procs, golden: *updateGolden, tmp: tmp,
		values: map[string]float64{}, samples: map[string]int{},
	}
	runErr := runGuarded(w, c)
	c.set("peak_rss_mb", peakRSSMB())
	rec := c.record(runErr)
	c.report(stdout, rec, runErr)
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.harnessLine())
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if runErr != nil || !rec.Correct || rec.Failed > 0 {
		return 1
	}
	return 0
}

// runGuarded runs the workload, turning a panic (a sweep cell that
// panics re-raises in the caller) into an error so the metrics
// gathered so far are still printed.
func runGuarded(w *workloadDef, c *runCtx) (err error) {
	defer func() {
		if p := recover(); p != nil {
			c.failed++
			err = fmt.Errorf("workload panicked: %v", p)
		}
	}()
	return w.run(c)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll re-executes this binary once per workload, so that each
// workload's peak_rss_mb is its own process's.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			}
			code = 1
		}
	}
	return code
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run as stored by -json and read by -compare.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Scale     string                 `json:"scale"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record assembles the run: the declared metric set of its mode —
// every end-to-end metric untraced, every per-layer metric traced (0
// for the layers the workload never enters) — plus, untraced, the
// workload's own e2e.* readings.
func (c *runCtx) record(runErr error) runRecord {
	rec := runRecord{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Traced: c.traced,
		Scale: "full", Correct: runErr == nil, Attempted: c.ops, Failed: c.failed,
		Metrics: map[string]metricValue{},
	}
	if c.smoke {
		rec.Scale = "smoke"
	}
	if rec.Attempted < 1 {
		rec.Attempted = 1
	}
	for _, ck := range c.checks {
		if !ck.ok {
			rec.Correct = false
		}
	}
	for _, d := range allMetrics {
		v, measured := c.values[d.name]
		if !measured && !declared(d.name, c.traced) {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			rec.Correct = false
		}
		rec.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return rec
}

// declared reports whether BENCHMARK.json lists name for the mode.
// End-to-end metrics are the ones with a bound.
func declared(name string, traced bool) bool {
	d, ok := metricByName[name]
	return ok && (d.bound > 0) != traced
}

// harnessLine is the object printed as the last line of output: the
// record cut down to the declared metrics of its mode.
func (r runRecord) harnessLine() any {
	metrics := map[string]metricValue{}
	for name, v := range r.Metrics {
		if declared(name, r.Traced) {
			metrics[name] = v
		}
	}
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}
}

// report prints the run for a reader: arguments, every metric measured
// (the declared ones and, untraced, the workload's own e2e.* readings),
// the checks and the verdict.
func (c *runCtx) report(w io.Writer, rec runRecord, runErr error) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  traced %v  scale %s  GOMAXPROCS %d\n",
		c.workload, c.seed, c.seconds, c.traced, rec.Scale, c.procs)
	names := make([]string, 0, len(c.values))
	for name := range c.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line := fmt.Sprintf("  %-36s %14.6g %s", name, c.values[name], metricByName[name].unit)
		if n := c.samples[name]; n > 0 {
			line += fmt.Sprintf("  (median of %d)", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range c.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, ck := range c.checks {
		verdict := "ok"
		if !ck.ok {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-34s %s  %s\n", ck.name, verdict, ck.detail)
	}
	if c.traceOut != "" {
		fmt.Fprintf(w, "  trace written to %s\n", c.traceOut)
	}
	if runErr != nil {
		fmt.Fprintf(w, "  error: %v\n", runErr)
	}
	fmt.Fprintf(w, "  ops %d  failed %d  correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
}

// appendRecord adds rec to the JSON array stored in path.
func appendRecord(path string, rec runRecord) error {
	recs, err := readRecords(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	recs = append(recs, rec)
	data, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecords(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
