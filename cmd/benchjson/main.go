// Command benchjson converts `go test -bench` text output into a JSON
// array, one object per benchmark result, including -benchmem columns
// and custom ReportMetric units. It reads stdin (or -in) and writes
// stdout (or -out), so the typical use is
//
//	go test -bench=. -benchmem | go run ./cmd/benchjson -out BENCH.json
//
// Non-benchmark lines (goos/pkg headers, PASS, ok) are skipped, which
// makes it safe to pipe a whole test run through.
//
// With -compare it instead diffs two previously emitted JSON records:
//
//	go run ./cmd/benchjson -compare -old BENCH_flow.prev.json -new BENCH_flow.json
//
// printing a per-benchmark ns/op ratio table and exiting nonzero if
// any benchmark present in both records slowed down by more than
// -threshold (default 0.10, i.e. 10%).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	in := flag.String("in", "", "benchmark text to parse (default stdin)")
	out := flag.String("out", "", "JSON destination (default stdout)")
	compare := flag.Bool("compare", false, "diff two JSON records instead of parsing text")
	oldPath := flag.String("old", "", "baseline JSON record (with -compare)")
	newPath := flag.String("new", "", "candidate JSON record (with -compare)")
	threshold := flag.Float64("threshold", 0.10, "ns/op regression fraction that fails the diff (with -compare)")
	flag.Parse()

	if *compare {
		if *oldPath == "" || *newPath == "" {
			fatal(fmt.Errorf("-compare needs both -old and -new"))
		}
		oldRes, err := loadRecord(*oldPath)
		if err != nil {
			fatal(err)
		}
		newRes, err := loadRecord(*newPath)
		if err != nil {
			fatal(err)
		}
		deltas, regressed := Compare(oldRes, newRes, *threshold)
		printDeltas(os.Stdout, deltas, *oldPath, *newPath)
		if regressed {
			fmt.Fprintf(os.Stderr, "benchjson: ns/op or bytes_per_op regression beyond %.0f%% detected\n", *threshold*100)
			os.Exit(1)
		}
		return
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	results, err := Parse(r)
	if err != nil {
		fatal(err)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fatal(err)
	}
}

// Parse extracts every benchmark result line from r. A result line is
//
//	BenchmarkName-8   100   12345 ns/op   67 B/op   8 allocs/op   1.5 widgets
//
// where the -8 GOMAXPROCS suffix, memory columns and custom metric
// pairs are all optional.
func Parse(r io.Reader) ([]Result, error) {
	var results []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || (len(fields)-2)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		res := Result{Name: name, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = val
			case "B/op":
				v := int64(val)
				res.BytesPerOp = &v
			case "allocs/op":
				v := int64(val)
				res.AllocsPerOp = &v
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = val
			}
		}
		results = append(results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if results == nil {
		results = []Result{}
	}
	return results, nil
}

// Delta is one benchmark's comparison row. Ratio is new/old ns/op;
// zero when the benchmark is missing from one side. The bytes fields
// mirror the ns ones for -benchmem's B/op column when both records
// carry it (allocation regressions hide inside flat ns/op numbers on
// allocation-bound paths, so -compare gates them separately). Custom
// metrics with a recognizable direction (qps up, p99_ms down) are
// gated too; MetricNotes lists each gated metric's change.
type Delta struct {
	Name        string
	OldNs       float64
	NewNs       float64
	Ratio       float64
	OldBytes    *int64
	NewBytes    *int64
	BytesRatio  float64
	MetricNotes []string
	Status      string // "ok", "REGRESSED", "REGRESSED(bytes)", "REGRESSED(<metric>)", "improved", "added", "removed"
}

// metricDir classifies a custom ReportMetric unit for gating: +1 when
// bigger is better (throughput), -1 when smaller is better (latency),
// 0 when the unit carries no recognizable direction and is ignored.
// The conventions match the units the repo's benchmarks emit: "qps",
// "*_per_sec" and "*/s" count rates; "*_ms"/"*_us"/"*_ns" (p50_ms,
// p99_ms, ...) are durations.
func metricDir(unit string) int {
	switch {
	case unit == "qps", strings.HasSuffix(unit, "_per_sec"), strings.HasSuffix(unit, "/s"):
		return 1
	case strings.HasSuffix(unit, "_ms"), strings.HasSuffix(unit, "_us"), strings.HasSuffix(unit, "_ns"):
		return -1
	}
	return 0
}

// Compare matches benchmarks by name and classifies each ns/op ratio
// against the regression threshold (a fraction: 0.10 flags slowdowns
// beyond +10%). bytes_per_op, when present on both sides, is gated by
// the same threshold: a benchmark whose speed held but whose B/op
// grew past it is flagged "REGRESSED(bytes)". Improvements use the
// mirrored ns bound. Benchmarks present on only one side are reported
// as added/removed and never fail the comparison; only REGRESSED rows
// set the second return.
func Compare(oldRes, newRes []Result, threshold float64) ([]Delta, bool) {
	oldBy := make(map[string]Result, len(oldRes))
	for _, r := range oldRes {
		oldBy[r.Name] = r
	}
	seen := make(map[string]bool, len(newRes))
	var deltas []Delta
	regressed := false
	for _, n := range newRes {
		seen[n.Name] = true
		o, ok := oldBy[n.Name]
		if !ok {
			deltas = append(deltas, Delta{Name: n.Name, NewNs: n.NsPerOp, NewBytes: n.BytesPerOp, Status: "added"})
			continue
		}
		d := Delta{Name: n.Name, OldNs: o.NsPerOp, NewNs: n.NsPerOp, OldBytes: o.BytesPerOp, NewBytes: n.BytesPerOp, Status: "ok"}
		if o.NsPerOp > 0 {
			d.Ratio = n.NsPerOp / o.NsPerOp
			switch {
			case d.Ratio > 1+threshold:
				d.Status = "REGRESSED"
				regressed = true
			case d.Ratio < 1-threshold:
				d.Status = "improved"
			}
		}
		if o.BytesPerOp != nil && n.BytesPerOp != nil && *o.BytesPerOp > 0 {
			d.BytesRatio = float64(*n.BytesPerOp) / float64(*o.BytesPerOp)
			if d.BytesRatio > 1+threshold {
				if d.Status != "REGRESSED" {
					d.Status = "REGRESSED(bytes)"
				}
				regressed = true
			}
		}
		// Directional custom metrics: a qps drop or a p99 climb past
		// the threshold fails the comparison even when ns/op held
		// (open-loop benchmarks have near-constant ns/op by design —
		// the schedule fixes it — so tails only show up here).
		for _, unit := range sortedUnits(n.Metrics) {
			ov, ok := o.Metrics[unit]
			if !ok {
				// A metric the baseline lacks can't be compared, but
				// staying silent about it hides instrumentation drift.
				d.MetricNotes = append(d.MetricNotes, unit+" added")
				continue
			}
			if ov <= 0 {
				continue
			}
			dir := metricDir(unit)
			if dir == 0 {
				continue
			}
			ratio := n.Metrics[unit] / ov
			d.MetricNotes = append(d.MetricNotes, fmt.Sprintf("%s %+.1f%%", unit, (ratio-1)*100))
			if (dir > 0 && ratio < 1-threshold) || (dir < 0 && ratio > 1+threshold) {
				if !strings.HasPrefix(d.Status, "REGRESSED") {
					d.Status = "REGRESSED(" + unit + ")"
				}
				regressed = true
			}
		}
		for _, unit := range sortedUnits(o.Metrics) {
			if _, ok := n.Metrics[unit]; !ok {
				d.MetricNotes = append(d.MetricNotes, unit+" removed")
			}
		}
		deltas = append(deltas, d)
	}
	for _, o := range oldRes {
		if !seen[o.Name] {
			deltas = append(deltas, Delta{Name: o.Name, OldNs: o.NsPerOp, OldBytes: o.BytesPerOp, Status: "removed"})
		}
	}
	return deltas, regressed
}

// sortedUnits returns the metric names in stable order so comparison
// output and the first-regression-wins status are deterministic.
func sortedUnits(m map[string]float64) []string {
	units := make([]string, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}

func loadRecord(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res []Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return res, nil
}

func printDeltas(w io.Writer, deltas []Delta, oldPath, newPath string) {
	fmt.Fprintf(w, "benchmark comparison: %s -> %s\n", oldPath, newPath)
	for _, d := range deltas {
		switch d.Status {
		case "added":
			fmt.Fprintf(w, "%-40s %14s %12.0f ns/op  added\n", d.Name, "-", d.NewNs)
		case "removed":
			fmt.Fprintf(w, "%-40s %14.0f %12s ns/op  removed\n", d.Name, d.OldNs, "-")
		default:
			fmt.Fprintf(w, "%-40s %14.0f %12.0f ns/op  %+6.1f%%", d.Name, d.OldNs, d.NewNs, (d.Ratio-1)*100)
			if d.BytesRatio > 0 {
				fmt.Fprintf(w, "  B/op %+6.1f%%", (d.BytesRatio-1)*100)
			}
			for _, note := range d.MetricNotes {
				fmt.Fprintf(w, "  %s", note)
			}
			fmt.Fprintf(w, "  %s\n", d.Status)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
