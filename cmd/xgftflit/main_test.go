package main

import (
	"bytes"
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
