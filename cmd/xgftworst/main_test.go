package main

import (
	"bytes"
	"strings"
	"testing"
)

// run invokes realMain with args and returns its exit status and
// both output streams.
func run(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUsageErrors: a missing or malformed topology, an unknown scheme
// and an unknown flag are usage errors and exit 2.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-xgft", "2;4,4"},
		{"-xgft", "2;4,x;1,4"},
		{"-xgft", "2;4,4;1,4", "-scheme", "no-such-scheme"},
		{"-no-such-flag"},
	} {
		if code, _, errOut := run(args...); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", args, code, errOut)
		}
	}
}

// TestTinySearch: a short search on a 16-node fabric exits 0, names the
// routing it searched and reports the ratio it found.
func TestTinySearch(t *testing.T) {
	code, out, errOut := run("-xgft", "2;4,4;1,4", "-scheme", "d-mod-k", "-steps", "50", "-restarts", "1", "-show")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.HasPrefix(out, "searching worst permutation for d-mod-k on XGFT(2; 4,4; 1,4) ...\n") {
		t.Fatalf("unexpected header:\n%s", out)
	}
	if !strings.Contains(out, "worst ratio found:") || !strings.Contains(out, " -> ") {
		t.Errorf("no result or permutation in output:\n%s", out)
	}
}
