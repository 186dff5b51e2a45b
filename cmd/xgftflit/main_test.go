package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// run invokes realMain with args and returns its exit status and
// combined output streams.
func run(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestTinyRun: a single short run on a 16-node XGFT exits 0 and
// reports the accepted throughput.
func TestTinyRun(t *testing.T) {
	code, out, errOut := run("-xgft", "2;4,4;1,4", "-load", "0.3", "-warmup", "100", "-measure", "400")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "accepted") {
		t.Fatalf("no result line in output:\n%s", out)
	}
}

// TestUnknownFlag: flag-parse errors exit 2, as the flag package's
// own usage errors do.
func TestUnknownFlag(t *testing.T) {
	if code, _, errOut := run("-no-such-flag"); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, errOut)
	}
}

// TestRealMainExitCodes: usage errors (a bad flag, topology, scheme or
// flag value) exit 2 before any work or manifest.
func TestRealMainExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"no topology", nil},
		{"bad -xgft", []string{"-xgft", "2;4,x;1,4"}},
		{"bad -mport", []string{"-mport", "7", "-ntree", "2"}},
		{"unknown -scheme", []string{"-xgft", "2;4,4;1,4", "-scheme", "nope"}},
		{"unknown flag", []string{"-xgft", "2;4,4;1,4", "-bogus"}},
		{"unknown -workload", []string{"-xgft", "2;4,4;1,4", "-workload", "bogus"}},
		{"unknown -policy", []string{"-xgft", "2;4,4;1,4", "-policy", "bogus"}},
		{"unknown -selector", []string{"-xgft", "2;4,4;1,4", "-selector", "bogus"}},
		{"unknown -vcscheme", []string{"-xgft", "2;4,4;1,4", "-vcscheme", "bogus"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if code, _, errOut := run(append(tc.args, "-out", dir)...); code != 2 {
				t.Fatalf("exit %d, want 2\nstderr: %s", code, errOut)
			}
			if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !os.IsNotExist(err) {
				t.Fatalf("usage error wrote a manifest (stat: %v)", err)
			}
		})
	}
}

// TestTooManyVCs: a VC count beyond InfiniBand's 15 data lanes is a
// configuration error, reported with a non-zero exit.
func TestTooManyVCs(t *testing.T) {
	code, _, errOut := run("-xgft", "2;4,4;1,4", "-vcs", "16", "-warmup", "100", "-measure", "400")
	if code == 0 {
		t.Fatal("-vcs 16 exited 0")
	}
	if !strings.Contains(errOut, "virtual channels") {
		t.Fatalf("stderr %q does not name the virtual-channel limit", errOut)
	}
}
