package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xgftsim/internal/cliutil"
	"xgftsim/internal/experiments"
)

// registryNames lists the registry's experiment names in run order.
func registryNames(rows []experiment) []string {
	var names []string
	for _, e := range rows {
		names = append(names, e.name)
	}
	return names
}

func TestSelectExperiments(t *testing.T) {
	cases := []struct {
		exp     string
		want    []string
		wantErr string
	}{
		{exp: "all", want: []string{
			"fig4a", "fig4b", "fig4c", "fig4d",
			"table1", "fig5", "failures",
			"thm1", "thm2",
			"tier", "lid", "diversity", "workload",
			"adaptive", "alltoall", "worstcase", "model", "crossover", "buffers", "vcs",
			"adaptivek", "churnsoak", "servebench", "mega",
		}},
		{exp: "thm2", want: []string{"thm2"}},
		{exp: "fig4a, table1", want: []string{"fig4a", "table1"}},
		{exp: "fig4,table1", want: []string{"fig4a", "fig4b", "fig4c", "fig4d", "table1"}},
		// Duplicates — literal or alias-introduced — run once, in
		// first-occurrence order, so CSVs are not overwritten mid-run.
		{exp: "fig4a,fig4a", want: []string{"fig4a"}},
		{exp: "table1,fig4a,table1,thm2,fig4a", want: []string{"table1", "fig4a", "thm2"}},
		{exp: "fig4", want: []string{"fig4a", "fig4b", "fig4c", "fig4d"}},
		{exp: "fig4,fig4", want: []string{"fig4a", "fig4b", "fig4c", "fig4d"}},
		{exp: "fig4b,fig4", want: []string{"fig4b", "fig4a", "fig4c", "fig4d"}},
		{exp: "nope", wantErr: "unknown experiment"},
		{exp: "", wantErr: "unknown experiment"},
		{exp: "fig4a,", wantErr: "unknown experiment"},
	}
	for _, c := range cases {
		got, err := selectExperiments(c.exp)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("selectExperiments(%q) err = %v, want %q", c.exp, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("selectExperiments(%q): %v", c.exp, err)
			continue
		}
		if got := registryNames(got); !reflect.DeepEqual(got, c.want) {
			t.Errorf("selectExperiments(%q) = %v, want %v", c.exp, got, c.want)
		}
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-workers", "-1", "-exp", "thm2"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2 (usage error); stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "-workers -1 is invalid") {
		t.Fatalf("stderr missing workers diagnosis:\n%s", errb.String())
	}
}

func TestNegativeFlitSeedsRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-flit-seeds", "-3", "-exp", "thm2"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2 (usage error); stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "-flit-seeds -3 is invalid") {
		t.Fatalf("stderr missing flit-seeds diagnosis:\n%s", errb.String())
	}
}

// TestScaleHelpNamesEveryScale pins -scale's usage text to the scales
// experiments.ScaleByName resolves, so a scale cannot be accepted
// without being documented.
func TestScaleHelpNamesEveryScale(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-h"}, &out, &errb); code != 2 {
		t.Fatalf("-h exit = %d, want 2", code)
	}
	help := errb.String()
	for _, name := range experiments.ScaleNames() {
		if _, err := experiments.ScaleByName(name); err != nil {
			t.Errorf("ScaleNames lists %q, which ScaleByName rejects: %v", name, err)
		}
		if !strings.Contains(help, name+" (") {
			t.Errorf("-scale help does not describe scale %q:\n%s", name, help)
		}
	}
	if _, err := experiments.ScaleByName("huge"); err == nil {
		t.Error("ScaleByName accepted an unknown scale")
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-exp", "fig9"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, errb.String())
	}
}

// TestManifestSmoke runs one fast experiment end to end in-process and
// checks the manifest golden properties: identity, seeds, workers, the
// per-experiment record with its wall-clock, CSV and metric delta, and
// a final registry snapshot carrying the flow/flit/experiments
// counters.
func TestManifestSmoke(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := realMain([]string{"-exp", "thm2", "-scale", "quick", "-seed", "7", "-workers", "2", "-out", dir}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var m cliutil.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest not valid JSON: %v\n%s", err, data)
	}
	if m.Tool != "xgftpaper" || m.Scale != "quick" || m.Seed != 7 || m.Workers != 2 {
		t.Fatalf("manifest identity: %+v", m)
	}
	if m.ExitCode != 0 || m.ExitStatus != "ok" || m.Error != "" {
		t.Fatalf("manifest status: %+v", m)
	}
	if m.Flags["exp"] != "thm2" || m.Flags["flit-seeds"] != "0" {
		t.Fatalf("manifest flags: %v", m.Flags)
	}
	if len(m.Experiments) != 1 {
		t.Fatalf("experiments: %+v", m.Experiments)
	}
	rec := m.Experiments[0]
	if rec.Name != "thm2" || rec.CSV != "thm2.csv" || rec.WallSeconds < 0 {
		t.Fatalf("experiment record: %+v", rec)
	}
	if rec.Metrics == nil {
		t.Fatal("experiment record has no metrics delta")
	}
	for _, name := range []string{
		"flow.pairs_evaluated", "flit.cycles",
		"experiments.cells_done", "experiments.cell_seconds",
	} {
		if _, ok := m.Metrics[name]; !ok {
			t.Errorf("final metrics snapshot missing %q", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "thm2.csv")); err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "runner.log")); err != nil {
		t.Fatalf("runner.log not written: %v", err)
	}
}

// TestManifestWrittenOnFailure checks the exit-status contract: a run
// that dies mid-sweep still seals a manifest recording the failure.
func TestManifestWrittenOnFailure(t *testing.T) {
	// No public hook forces an experiment panic cheaply, so exercise the
	// CSV-create failure path instead: the output directory vanishes
	// between MkdirAll and the CSV write... simpler: make `out` a path
	// whose CSV creation fails because a directory with the CSV's name
	// exists.
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "thm2.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := realMain([]string{"-exp", "thm2", "-out", dir}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errb.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatalf("failure manifest not written: %v", err)
	}
	var m cliutil.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode != 1 || m.Error == "" {
		t.Fatalf("failure not recorded: status=%d error=%q", m.ExitCode, m.Error)
	}
}
