package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Run is the run-record contract of the batch tools (xgftpaper,
// xgftflow, xgftflit): the -out directory and its manifest, the
// profilers, and the exit status. Finish seals it exactly once on
// every exit path — success, failure or interrupt — so a results
// directory always says what ran and how it ended.
type Run struct {
	// Manifest is the run's record. It always exists, so tools stamp
	// it unconditionally; it is written only when -out was given.
	Manifest *Manifest

	tool, dir string
	prof      *Profile
	stderr    io.Writer
	exit      func(int) // os.Exit; tests substitute a recorder

	once   sync.Once
	status int
}

// NewRun starts the record of one run of tool, whose flags fs are
// parsed: the manifest captures the tool identity and every flag
// value now, and is sealed into dir (the -out flag; empty for none).
func NewRun(tool string, fs *flag.FlagSet, dir string, prof *Profile, stderr io.Writer) *Run {
	man := NewManifest(tool)
	man.Flags = FlagValues(fs)
	return &Run{Manifest: man, tool: tool, dir: dir, prof: prof, stderr: stderr, exit: os.Exit}
}

// Start creates the -out directory and starts the profilers. On error
// the caller returns r.Finish(1, err); a directory that could not be
// created receives no manifest.
func (r *Run) Start() error {
	if r.dir != "" {
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			r.dir = ""
			return err
		}
	}
	return r.prof.Start()
}

// Finish seals the run once and returns the process exit status. It
// stops the profilers (a stop error turns a clean run into status 1
// and becomes the recorded error), stamps and writes the manifest when
// -out was given (a write error also turns status 0 into 1), and
// prints "tool: err" for the run's error. A later or racing call
// changes nothing and returns the status the first one sealed.
func (r *Run) Finish(status int, err error) int {
	r.once.Do(func() {
		if perr := r.prof.Stop(); perr != nil && err == nil {
			status, err = 1, perr
		}
		if r.dir != "" {
			r.Manifest.Finish(status, err)
			if werr := r.Manifest.WriteFile(r.dir); werr != nil {
				fmt.Fprintf(r.stderr, "%s: %v\n", r.tool, werr)
				if status == 0 {
					status = 1
				}
			}
		}
		if err != nil {
			fmt.Fprintf(r.stderr, "%s: %v\n", r.tool, err)
		}
		r.status = status
	})
	return r.status
}

// WatchInterrupt serves tools whose work has no cell boundaries to
// cancel at: the first SIGINT/SIGTERM seals the run with exit_status
// "interrupted" and exits 130. Defer the returned stop: it ends the
// watch and restores the default signal disposition.
func (r *Run) WatchInterrupt() (stop func()) {
	ctx, stopSignals := WithInterrupt(context.Background())
	stopWatch := context.AfterFunc(ctx, func() { r.exit(r.Finish(130, ErrInterrupted)) })
	return func() {
		stopWatch()
		stopSignals()
	}
}

// WithInterrupt returns a context cancelled on the first SIGINT or
// SIGTERM, for CLIs that want to unwind gracefully (stop scheduling
// work, seal the manifest with exit_status "interrupted") instead of
// dying mid-sweep. Once the context fires the handler is deregistered
// and the default disposition restored, so a second signal kills the
// process immediately — the escape hatch when a cancelled run takes
// too long to unwind. The returned stop deregisters it early.
func WithInterrupt(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx, stop
}
