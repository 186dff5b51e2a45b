// Package serve is the long-running routing control plane: it holds
// compiled routing tables for multiple named fabrics, answers path /
// LID / load queries over HTTP, and ingests live fault and repair
// events. Every accepted event is journaled before it is acknowledged,
// applied as a delta-compiled copy-on-write table swap (readers never
// block), and degradations — repair failures, over-budget recompiles,
// wedged repair loops — keep the last good table serving, flagged as
// stale, instead of failing queries.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Event is one fault or repair notification. Kind selects the failure
// unit and which locator fields matter: a cable (child Node + up-port
// Port, both directed links), a whole switch (Node), or a single
// directed link (Link). Seq is assigned by the server at admission, in
// journal order; clients submit events with Seq zero.
type Event struct {
	Seq  uint64 `json:"seq"`
	Op   string `json:"op"`   // "fail" | "heal"
	Kind string `json:"kind"` // "cable" | "switch" | "link"
	Node int    `json:"node,omitempty"`
	Port int    `json:"port,omitempty"`
	Link int    `json:"link,omitempty"`
}

// key collapses an event to its failure unit, so fail and heal of the
// same unit cancel in the fault bookkeeping.
func (e Event) key() eventKey {
	return eventKey{Kind: e.Kind, Node: e.Node, Port: e.Port, Link: e.Link}
}

type eventKey struct {
	Kind       string
	Node, Port int
	Link       int
}

// Journal is a write-ahead fault log: JSON lines, one event per line,
// fsync'd before an event is acknowledged, so a crashed or killed
// server replays exactly the events it accepted and converges to the
// same degraded state. A torn final line (crash mid-write) is
// truncated away on open — it was never acknowledged, so dropping it
// is correct.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	records int // acknowledged events currently in the file
}

// OpenJournal opens (creating if absent) the journal at path and
// replays its events in order. The returned slice is the acknowledged
// history; a torn tail is truncated before the file is reopened for
// appending.
func OpenJournal(path string) (*Journal, []Event, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	events, keep, err := readJournal(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: open journal: %w", err)
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: truncate torn journal tail: %w", err)
	}
	if _, err := f.Seek(keep, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, path: path, records: len(events)}, events, nil
}

// readJournal parses the journal, returning the valid events and the
// byte offset the valid prefix ends at (where a torn tail, if any,
// begins).
func readJournal(path string) ([]Event, int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: read journal: %w", err)
	}
	var events []Event
	var keep int64
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated tail: crash mid-write, never acknowledged
		}
		line := data[off : off+nl]
		var e Event
		if len(bytes.TrimSpace(line)) > 0 {
			if err := json.Unmarshal(line, &e); err != nil {
				break // corrupt tail record: treat like a torn write
			}
			events = append(events, e)
		}
		off += nl + 1
		keep = int64(off)
	}
	return events, keep, nil
}

// Append durably records one event: the line is written and fsync'd
// before Append returns, so an acknowledged event survives a crash.
func (j *Journal) Append(e Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("serve: journal fsync: %w", err)
	}
	j.records++
	return nil
}

// Records returns how many acknowledged events the file holds
// (including compacted history).
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Compact atomically replaces the journal with the given snapshot
// events (typically the currently-failed units re-stamped with the
// latest sequence number): they are written to a temp file, fsync'd,
// and renamed over the journal, so a crash at any point leaves either
// the old complete log or the new one. Replaying the snapshot yields
// the same fault state as replaying the full history.
func (j *Journal) Compact(events []Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".compact-*")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	w := bufio.NewWriter(tmp)
	for _, e := range events {
		data, err := json.Marshal(e)
		if err != nil {
			return cleanup(err)
		}
		data = append(data, '\n')
		if _, err := w.Write(data); err != nil {
			return cleanup(err)
		}
	}
	if err := w.Flush(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(dir)
	old := j.f
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted file is in place but we lost our handle; keep
		// appending to the old (now unlinked) handle would lose events,
		// so surface the error and leave the journal closed for writes.
		return fmt.Errorf("serve: reopen compacted journal: %w", err)
	}
	j.f = f
	old.Close()
	j.records = len(events)
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable;
// best-effort on platforms where directories cannot be opened.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Close releases the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
