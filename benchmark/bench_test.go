package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The driver writes under benchmark/out of the directory it is run
// from, and BENCHMARK.json lies at the repository root: run the tests
// from there, as the harness runs the driver.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesDriver checks that BENCHMARK.json declares
// exactly the workloads and metrics the driver prints, within the
// harness's limits on names, units and counts.
func TestBenchmarkFileMatchesDriver(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1,60]", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, driver has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, driver %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	compare := func(kind string, declared []declaredMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d declared, driver has %d", kind, len(declared), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range declared {
			def := defs[i]
			if d.Name != def.name || d.Unit != def.unit || d.Better != def.better {
				t.Errorf("%s %d: declared %+v, driver %+v", kind, i, d, def)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s %q: bad or repeated name, or bad unit %q", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %q: better %q", kind, d.Name, d.Better)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound != def.bound || *d.Bound <= 0 || *d.Bound > 0.25):
				t.Errorf("%s %q: bound %v, driver %v", kind, d.Name, d.Bound, def.bound)
			case !bounded && d.Bound != nil:
				t.Errorf("%s %q: per-layer metrics have no bound", kind, d.Name)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd, true)
	compare("per_layer", bf.PerLayer, perLayer, false)
	if len(bf.PerLayer) > 128 || len(bf.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(bf.EndToEnd), len(bf.PerLayer))
	}
}

// harnessOutput is the last line of a run.
type harnessOutput struct {
	Correct   *bool                  `json:"correct"`
	Attempted *int64                 `json:"attempted"`
	Failed    *int64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// TestSmoke runs every workload at smoke scale, untraced and (unless
// -short) traced, and checks what the harness will check: exit code 0,
// a last line holding exactly the declared metrics of the mode with
// finite values, no failed operation and every correctness check
// passed — which in the traced run includes that the traced replay
// reproduced the untraced tables bit for bit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			if trace == "1" && testing.Short() {
				continue
			}
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := realMain([]string{"-workload", w.name, "-scale", "smoke", "-seconds", "1", "-seed", "7", "-trace", trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out harnessOutput
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&out); err != nil {
					t.Fatalf("last line is not the harness object: %v\n%s", err, lines[len(lines)-1])
				}
				if out.Correct == nil || !*out.Correct || out.Attempted == nil || *out.Attempted < 1 || out.Failed == nil || *out.Failed != 0 {
					t.Fatalf("correct/attempted/failed: %s", lines[len(lines)-1])
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, %d declared", len(out.Metrics), len(defs))
				}
				nonZero := 0
				for _, d := range defs {
					v, ok := out.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %v %s, want a finite value in %s", d.name, v.Value, v.Unit, d.unit)
					}
					if v.Value != 0 {
						nonZero++
					}
					if trace == "0" && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, v.Value)
					}
				}
				if trace == "1" && nonZero < 10 {
					t.Errorf("only %d per-layer metrics are non-zero", nonZero)
				}
			})
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-scale", "huge", "-workload", "flit-paper"},
		{"-trace", "2", "-workload", "flit-paper"}, {"-compare", "only-one.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
	}
}

func rec(workload string, seed int64, metrics map[string]float64) runRecord {
	r := runRecord{Workload: workload, Seed: seed, Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
	for k, v := range metrics {
		r.Metrics[k] = metricValue{Value: v}
	}
	return r
}

// TestCompareVerdicts pins -compare's rules: the bound on end-to-end
// medians, unresolved when a side's own spread exceeds the bound, and
// equality for counts and simulated statistics.
func TestCompareVerdicts(t *testing.T) {
	steadyA := []runRecord{
		rec("flit-paper", 1, map[string]float64{"nominal_per_s": 100, "flit.vc_stalls": 7}),
		rec("flit-paper", 1, map[string]float64{"nominal_per_s": 101, "flit.vc_stalls": 7}),
	}
	for _, tc := range []struct {
		name string
		b    []runRecord
		want string
		code int
	}{
		{"unchanged", []runRecord{rec("flit-paper", 1, map[string]float64{"nominal_per_s": 90, "flit.vc_stalls": 7})}, "unchanged", 0},
		{"regressed", []runRecord{rec("flit-paper", 1, map[string]float64{"nominal_per_s": 70, "flit.vc_stalls": 7})}, "REGRESSED", 1},
		{"improved", []runRecord{rec("flit-paper", 1, map[string]float64{"nominal_per_s": 130, "flit.vc_stalls": 7})}, "improved", 0},
		{"noisy side", []runRecord{
			rec("flit-paper", 1, map[string]float64{"nominal_per_s": 60, "flit.vc_stalls": 7}),
			rec("flit-paper", 1, map[string]float64{"nominal_per_s": 104, "flit.vc_stalls": 7}),
		}, "unresolved", 0},
		{"count moved", []runRecord{rec("flit-paper", 1, map[string]float64{"nominal_per_s": 100, "flit.vc_stalls": 8})}, "MOVED", 1},
		{"other seed", []runRecord{rec("flit-paper", 2, map[string]float64{"nominal_per_s": 100, "flit.vc_stalls": 8})}, "seeds differ", 0},
	} {
		var out bytes.Buffer
		code := compareRecords(steadyA, tc.b, &out)
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit code %d, want %d and %q in\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Parent: 0, Name: "root", Layer: layerDriver, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Layer: layerFlow, Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "b", Layer: layerFlow, Start: 40, End: 90}, // overlaps a: parallel workers
		{ID: 4, Parent: 2, Name: "c", Layer: layerCore, Start: 20, End: 30},
	}}
	sum := tr.summarize()
	if got := sum.byLayer[layerDriver]; got != 20 { // 100 − union[10,90]
		t.Errorf("root self time %d, want 20", got)
	}
	if got := sum.byLayer[layerFlow]; got != 40+50 { // a: 50−10, b: 50
		t.Errorf("flow self time %d, want 90", got)
	}
	if sum.coverage != 0.8 {
		t.Errorf("coverage %v, want 0.8", sum.coverage)
	}
}
