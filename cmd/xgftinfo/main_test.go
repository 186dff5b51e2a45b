package main

import (
	"bytes"
	"strings"
	"testing"
)

// run invokes realMain with args and returns its exit status and
// output streams.
func run(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestSummary: the summary of the Table 1 fabric names its size, its
// cable tiers and the table regime of the default scheme.
func TestSummary(t *testing.T) {
	code, out, errOut := run("-xgft", "3;4,4,8;1,4,4")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{
		"XGFT(3; 4,4,8; 1,4,4)",
		"processing nodes: 128",
		"tier 2-3 cables:",
		"max shortest paths between nodes: 16",
		"compiled routing table (disjoint, K=4)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "selects:") {
		t.Errorf("summary without -src/-dst lists paths:\n%s", out)
	}
}

// TestPathListing: -src/-dst lists the K paths the scheme selects, each
// running from the source's label to the destination's.
func TestPathListing(t *testing.T) {
	code, out, errOut := run("-xgft", "3;4,4,4;1,4,2", "-src", "0", "-dst", "63", "-scheme", "disjoint", "-k", "4")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "pair (0 -> 63): NCA level 3, 8 shortest paths") {
		t.Fatalf("no pair header in output:\n%s", out)
	}
	var paths int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  path ") {
			paths++
			if !strings.Contains(line, ": (0,0,0,0) -> ") || !strings.HasSuffix(line, " -> (0,3,3,3)") {
				t.Errorf("path does not run from node 0 to node 63: %q", line)
			}
		}
	}
	if paths != 4 {
		t.Fatalf("listed %d paths, want K = 4:\n%s", paths, out)
	}
}

// TestUsageErrors: a bad topology, scheme, node pair or flag exits 2
// with the reason on stderr and nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no topology", nil, "-mport"},
		{"bad -xgft", []string{"-xgft", "2;4,x;1,4"}, "bad m arities"},
		{"unknown -scheme", []string{"-xgft", "2;4,4;1,4", "-scheme", "nope"}, "unknown routing scheme"},
		{"pair out of range", []string{"-xgft", "2;4,4;1,4", "-src", "0", "-dst", "16"}, "out of range"},
		{"unknown flag", []string{"-xgft", "2;4,4;1,4", "-bogus"}, "bogus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := run(tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstderr: %s", code, errOut)
			}
			if !strings.Contains(errOut, tc.want) {
				t.Errorf("stderr %q does not mention %q", errOut, tc.want)
			}
			if out != "" {
				t.Errorf("usage error printed to stdout:\n%s", out)
			}
		})
	}
}
