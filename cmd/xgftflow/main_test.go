package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xgftsim/internal/obs"
)

func TestRealMainExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no topology", nil, 1},
		{"unknown flag", []string{"-mport", "8", "-ntree", "2", "-bogus"}, 2},
		{"removed -compile", []string{"-mport", "8", "-ntree", "2", "-compile", "block"}, 2},
		{"removed -table-cache", []string{"-mport", "8", "-ntree", "2", "-table-cache", t.TempDir()}, 2},
		{"removed -segment-bytes", []string{"-mport", "8", "-ntree", "2", "-segment-bytes", "4096"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := realMain(tc.args, &out, &errw); code != tc.want {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, tc.want, errw.String())
			}
		})
	}
}

// TestRealMainTableBudget runs the permutation study on a compiled
// table (the default budget; the sample cap covers the fabric's 32
// nodes) and on the lazy path a 1-byte budget forces: both print the
// same average, and -out stamps the budget into the manifest.
func TestRealMainTableBudget(t *testing.T) {
	study := []string{"-mport", "8", "-ntree", "2", "-samples", "8", "-max-samples", "32"}
	fallbacks := func() int64 {
		return obs.Default().Counter("flow.compile_fallback_budget").Value() +
			obs.Default().Counter("flow.compile_fallback_amortized").Value()
	}
	var avg []string
	for _, tc := range []struct {
		extra []string
		lazy  int64 // compile fallbacks the run must count
	}{{nil, 0}, {[]string{"-table-budget", "1"}, 1}} {
		extra := tc.extra
		before := fallbacks()
		dir := t.TempDir()
		var out, errw bytes.Buffer
		args := append(append(append([]string(nil), study...), extra...), "-out", dir)
		if code := realMain(args, &out, &errw); code != 0 {
			t.Fatalf("%v: exit %d\nstderr: %s", args, code, errw.String())
		}
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "average max link load") {
				line = l
			}
		}
		if line == "" {
			t.Fatalf("%v: no average line in\n%s", args, out.String())
		}
		avg = append(avg, line)
		if got := fallbacks() - before; got != tc.lazy {
			t.Errorf("%v: %d compile fallbacks, want %d", args, got, tc.lazy)
		}

		raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		var man struct {
			TableBudget *int64 `json:"table_budget"`
		}
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatal(err)
		}
		if man.TableBudget == nil {
			t.Fatalf("%v: manifest has no table_budget:\n%s", args, raw)
		}
		if extra != nil && *man.TableBudget != 1 {
			t.Errorf("%v: manifest table_budget %d, want 1", args, *man.TableBudget)
		}
	}
	if avg[0] != avg[1] {
		t.Fatalf("compiled and lazy studies differ:\n%s\n%s", avg[0], avg[1])
	}
}
