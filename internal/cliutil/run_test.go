package cliutil

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// newTestRun parses args into a fresh flag set with the profiling
// flags and starts a run of "testtool" sealing into dir. The exit hook
// fails the test: only the interrupt test expects it to be called.
func newTestRun(t *testing.T, dir string, args ...string) (*Run, *bytes.Buffer) {
	t.Helper()
	fs := flag.NewFlagSet("testtool", flag.ContinueOnError)
	prof := AddProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	r := NewRun("testtool", fs, dir, prof, &stderr)
	r.exit = func(code int) { t.Errorf("unexpected exit(%d)", code) }
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	return r, &stderr
}

func readManifest(t *testing.T, dir string) Manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunRacingFinishSealsOnce: a normal exit racing an interrupt
// seals the manifest once; both callers get the sealed status, and a
// later Finish neither rewrites the manifest nor prints again.
func TestRunRacingFinishSealsOnce(t *testing.T) {
	dir := t.TempDir()
	r, stderr := newTestRun(t, dir)
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i, status := range []int{0, 130} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if status == 130 {
				err = ErrInterrupted
			}
			codes[i] = r.Finish(status, err)
		}()
	}
	wg.Wait()
	if codes[0] != codes[1] {
		t.Fatalf("racing finishes returned %v, want one sealed status", codes)
	}
	m := readManifest(t, dir)
	if m.ExitCode != codes[0] {
		t.Fatalf("manifest exit_code %d, Finish returned %d", m.ExitCode, codes[0])
	}
	if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	printed := stderr.String()
	if got := r.Finish(1, errors.New("late failure")); got != codes[0] {
		t.Fatalf("late Finish returned %d, want the sealed %d", got, codes[0])
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !os.IsNotExist(err) {
		t.Fatalf("late Finish rewrote the manifest (stat: %v)", err)
	}
	if stderr.String() != printed {
		t.Fatalf("late Finish printed %q", strings.TrimPrefix(stderr.String(), printed))
	}
}

// TestRunProfilerStopErrorFailsRun: a heap profile that cannot be
// written turns a clean run into status 1, recorded in the manifest
// and printed as "tool: err".
func TestRunProfilerStopErrorFailsRun(t *testing.T) {
	dir := t.TempDir()
	mem := filepath.Join(dir, "missing", "mem.pprof")
	r, stderr := newTestRun(t, dir, "-memprofile", mem)
	if got := r.Finish(0, nil); got != 1 {
		t.Fatalf("Finish(0) = %d, want 1 after a profiler stop error", got)
	}
	m := readManifest(t, dir)
	if m.ExitCode != 1 || m.ExitStatus != "error" || !strings.Contains(m.Error, mem) {
		t.Fatalf("manifest status %d %q, error %q: want 1, error, naming %s", m.ExitCode, m.ExitStatus, m.Error, mem)
	}
	if !strings.HasPrefix(stderr.String(), "testtool: ") || !strings.Contains(stderr.String(), mem) {
		t.Fatalf("stderr %q does not report the profiler error", stderr.String())
	}
}

// TestRunInterruptSeals: the first SIGINT seals exit_status
// "interrupted" with code 130 and calls the exit hook with 130.
func TestRunInterruptSeals(t *testing.T) {
	dir := t.TempDir()
	r, _ := newTestRun(t, dir)
	exited := make(chan int, 1)
	r.exit = func(code int) { exited <- code }
	stop := r.WatchInterrupt()
	defer stop()
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != 130 {
			t.Fatalf("exit(%d), want 130", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("interrupt did not seal the run")
	}
	m := readManifest(t, dir)
	if m.ExitCode != 130 || m.ExitStatus != "interrupted" {
		t.Fatalf("manifest status %d %q, want 130 interrupted", m.ExitCode, m.ExitStatus)
	}
}

// TestRunWithoutOutWritesNoManifest: with no -out the run seals
// without creating a directory or a manifest.
func TestRunWithoutOutWritesNoManifest(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	r, _ := newTestRun(t, "")
	if got := r.Finish(0, nil); got != 0 {
		t.Fatalf("Finish(0) = %d", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("run without -out wrote %v", entries)
	}
}

// TestWithInterruptSecondSignalKills runs a child that cancels on the
// first SIGINT and then takes far too long to unwind: further SIGINTs
// must kill it by signal instead of waiting for the unwind.
func TestWithInterruptSecondSignalKills(t *testing.T) {
	if os.Getenv("CLIUTIL_INTERRUPT_CHILD") == "1" {
		ctx, stop := WithInterrupt(context.Background())
		defer stop()
		fmt.Println("ready")
		<-ctx.Done()
		fmt.Println("cancelled")
		time.Sleep(20 * time.Second)
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWithInterruptSecondSignalKills$")
	cmd.Env = append(os.Environ(), "CLIUTIL_INTERRUPT_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stdout)
	expect := func(want string) {
		t.Helper()
		if !lines.Scan() || lines.Text() != want {
			cmd.Process.Kill()
			t.Fatalf("child printed %q, want %q", lines.Text(), want)
		}
	}
	expect("ready")
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	expect("cancelled")
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	deadline := time.After(10 * time.Second)
	for {
		cmd.Process.Signal(os.Interrupt)
		select {
		case err := <-done:
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("child exited with %v, want death by SIGINT", err)
			}
			if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
				t.Fatalf("child ended with %v, want death by SIGINT", err)
			}
			return
		case <-deadline:
			cmd.Process.Kill()
			t.Fatal("a second SIGINT did not kill the unwinding child")
		case <-time.After(50 * time.Millisecond):
		}
	}
}
