package main

import (
	"bytes"
	"os"
	"path/filepath"
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

// TestTinyFabric: a 16-node fabric builds, dumps, verifies and reports
// its path diversity, with the LID-plan header first.
func TestTinyFabric(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "lft.txt")
	code, out, errOut := run("-xgft", "2;4,4;1,4", "-scheme", "disjoint", "-k", "2",
		"-dump", dump, "-verify", "-diversity")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.HasPrefix(out, "XGFT(2; 4,4; 1,4), scheme disjoint, K=2: LMC=1,") {
		t.Fatalf("unexpected header:\n%s", out)
	}
	for _, want := range []string{"forwarding tables:", "wrote LFT dump to", "all shortest, all delivered", "NCA level 2:", "port spread:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if fi, err := os.Stat(dump); err != nil || fi.Size() == 0 {
		t.Errorf("LFT dump not written: %v", err)
	}
}
