package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xgftsim/internal/serve"
)

// The load generator. Closed loop models callers that each wait for a
// reply: conns workers send back to back. Open loop models independent
// clients: one pacer releases requests on absolute deadlines whatever
// the server does, latency is charged from each request's due time,
// and how late the generator itself ran is reported next to it.

// reqKind is one request type of the mix.
type reqKind uint8

const (
	kindPath reqKind = iota
	kindBatch
	kindMaxLoad
)

// request is one generated input: everything needed to send it and to
// check the reply.
type request struct {
	kind  reqKind
	url   string
	body  []byte   // batch only
	pairs [][2]int // the pairs asked about (one for kindPath)
}

// decodeEvery: every decodeEvery-th reply of a worker is decoded in
// full and cross-checked against the oracle; the rest are checked for
// status and a complete body only, so the client's own cost stays
// small next to the server's.
const decodeEvery = 64

// verifier checks one decoded reply; it returns an error on a mismatch.
type verifier func(req *request, body []byte) error

// generator sends generated requests over at most conns connections.
type generator struct {
	client *http.Client
	conns  int
	verify verifier
	tr     *tracer

	mu       sync.Mutex
	firstErr error // why the first failed request failed
}

func (g *generator) fail(req *request, err error) bool {
	g.mu.Lock()
	if g.firstErr == nil {
		g.firstErr = fmt.Errorf("%s: %w", req.url, err)
	}
	g.mu.Unlock()
	return false
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	requests int64 // completed with 200
	pairs    int64 // pairs answered
	failed   int64 // transport error, non-200, empty or mismatched reply
	checked  int64 // replies decoded and cross-checked
	byKind   [3]int64

	// Closed loop only: completions per second in each window.
	winQPS, winPairsPerSec []float64

	// Open loop only: per-window latency percentiles, generator
	// lateness and the most requests due but unsent.
	p50s, p99s       []float64 // ms, one per window
	lateP50, lateP99 float64   // ms, median over the windows
	lateMax          float64   // ms, over the phase
	backlogMax       int
}

// closedWindows is how many equal windows a closed-loop phase is cut
// into. Its throughput is the median over the windows, so that one
// stall of the sandbox (tens of milliseconds, a few times a minute)
// costs one window, not a share of the whole phase.
const closedWindows = 10

// qps and pairsPerSec are the closed-loop throughput: the median over
// the phase's windows of what completed in each.
func (r phaseResult) qps() float64         { return median(r.winQPS) }
func (r phaseResult) pairsPerSec() float64 { return median(r.winPairsPerSec) }

// worker is one connection's private state.
type worker struct {
	g    *generator
	buf  bytes.Buffer
	n    int64
	stat phaseResult
}

// issue sends one request and reads the whole reply; it reports whether
// the reply was a complete 200 (and, when decoded, correct).
func (w *worker) issue(req *request) bool {
	var hreq *http.Request
	var err error
	if req.kind == kindBatch {
		hreq, err = http.NewRequest(http.MethodPost, req.url, bytes.NewReader(req.body))
		if err == nil {
			hreq.Header.Set("Accept", serve.BinaryBatchContentType)
		}
	} else {
		hreq, err = http.NewRequest(http.MethodGet, req.url, nil)
	}
	if err != nil {
		return w.g.fail(req, err)
	}
	resp, err := w.g.client.Do(hreq)
	if err != nil {
		return w.g.fail(req, err)
	}
	w.buf.Reset()
	_, err = io.Copy(&w.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return w.g.fail(req, err)
	}
	if resp.StatusCode != http.StatusOK || w.buf.Len() == 0 {
		return w.g.fail(req, fmt.Errorf("status %d with %d body bytes", resp.StatusCode, w.buf.Len()))
	}
	w.n++
	if w.n%decodeEvery == 0 {
		w.stat.checked++
		if err := w.g.verify(req, w.buf.Bytes()); err != nil {
			return w.g.fail(req, err)
		}
	}
	w.stat.requests++
	w.stat.pairs += int64(len(req.pairs))
	w.stat.byKind[req.kind]++
	return true
}

func (r *phaseResult) merge(o phaseResult) {
	r.requests += o.requests
	r.pairs += o.pairs
	r.failed += o.failed
	r.checked += o.checked
	for k := range r.byKind {
		r.byKind[k] += o.byKind[k]
	}
}

// closedLoop sends reqs round-robin from conns workers back to back for
// dur. Every decodeEvery-th request gets a span when tracing.
func (g *generator) closedLoop(parent int32, name string, reqs []request, dur time.Duration) phaseResult {
	sp := g.tr.begin(parent, layerClient, name)
	defer g.tr.end(sp)
	workers := make([]*worker, g.conns)
	window := dur / closedWindows
	// winReqs[w][i], winPairs[w][i]: what worker w completed in window i.
	winReqs := make([][closedWindows]int64, g.conns)
	winPairs := make([][closedWindows]int64, g.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range workers {
		workers[i] = &worker{g: g}
		wg.Add(1)
		go func(w *worker, id int) {
			defer wg.Done()
			for at := id; ; at += g.conns {
				req := &reqs[at%len(reqs)]
				sampled := g.tr != nil && (w.n+1)%decodeEvery == 0
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				ok := w.issue(req)
				done := time.Now()
				if !ok {
					w.stat.failed++
				} else if win := int(done.Sub(start) / window); win < closedWindows {
					winReqs[id][win]++
					winPairs[id][win] += int64(len(req.pairs))
				}
				if sampled {
					g.tr.add(sp, layerClient, "client.roundtrip", t0, done)
				}
			}
		}(workers[i], i)
	}
	wg.Wait()
	var res phaseResult
	for _, w := range workers {
		res.merge(w.stat)
	}
	for win := 0; win < closedWindows; win++ {
		var reqs, pairs int64
		for id := range workers {
			reqs += winReqs[id][win]
			pairs += winPairs[id][win]
		}
		res.winQPS = append(res.winQPS, float64(reqs)/window.Seconds())
		res.winPairsPerSec = append(res.winPairsPerSec, float64(pairs)/window.Seconds())
	}
	return res
}

// waitUntil returns at t. It sleeps in the kernel, not on a runtime
// timer: an idle Go scheduler wakes a timer up to a millisecond late
// (its poller waits in whole milliseconds), which is more than a
// request takes, and yielding in a loop instead keeps the scheduler
// from polling the network at all.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
	}
}

// openLoop sends reqs in order at rate requests per second for
// windows × window over conns connections, on a fixed schedule that
// does not wait for replies.
func (g *generator) openLoop(parent int32, name string, reqs []request, rate float64, windows int, window time.Duration) phaseResult {
	sp := g.tr.begin(parent, layerClient, name)
	defer g.tr.end(sp)
	perWindow := int(math.Round(rate * window.Seconds()))
	total := perWindow * windows
	interval := time.Duration(float64(time.Second) / rate)

	// One schedule, start + i·interval; each worker claims the next
	// unsent index, sleeps until it is due and sends it. A request is
	// late when no worker was free at its due time.
	lat := make([]time.Duration, total)  // from due time; 0 = failed
	late := make([]time.Duration, total) // send time − due time
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	backlog := make([]int, g.conns)
	workers := make([]*worker, g.conns)
	var wg sync.WaitGroup
	for i := range workers {
		workers[i] = &worker{g: g}
		wg.Add(1)
		go func(w *worker, id int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				waitUntil(due)
				sent := time.Now()
				late[i] = sent.Sub(due)
				// Requests due by now, minus those already claimed.
				if b := int(sent.Sub(start)/interval) + 1 - int(next.Load()); b > backlog[id] {
					backlog[id] = b
				}
				ok := w.issue(&reqs[i%len(reqs)])
				done := time.Now()
				if ok {
					lat[i] = done.Sub(due)
				} else {
					w.stat.failed++
				}
				if g.tr != nil {
					rs := g.tr.add(sp, layerClient, "client.request", due, done)
					g.tr.add(rs, layerClient, "client.wait_to_send", due, sent)
					g.tr.add(rs, layerClient, "client.roundtrip", sent, done)
				}
			}
		}(workers[i], i)
	}
	wg.Wait()
	backlogMax := 0
	for _, b := range backlog {
		backlogMax = max(backlogMax, b)
	}

	res := phaseResult{backlogMax: backlogMax}
	for _, w := range workers {
		res.merge(w.stat)
	}
	// Latency and lateness alike: percentiles per window, then the median
	// over the windows, so that one stall of the sandbox spoils one window
	// and not the phase.
	var lateP50s, lateP99s []float64
	for w := 0; w < windows; w++ {
		ok := make([]float64, 0, perWindow)
		lates := make([]float64, 0, perWindow)
		for i := w * perWindow; i < (w+1)*perWindow; i++ {
			if lat[i] > 0 {
				ok = append(ok, float64(lat[i])/1e6)
			}
			lates = append(lates, float64(late[i])/1e6)
			res.lateMax = max(res.lateMax, float64(late[i])/1e6)
		}
		res.p50s = append(res.p50s, quantile(ok, 0.50))
		res.p99s = append(res.p99s, quantile(ok, 0.99))
		lateP50s = append(lateP50s, quantile(lates, 0.50))
		lateP99s = append(lateP99s, quantile(lates, 0.99))
	}
	res.lateP50, res.lateP99 = median(lateP50s), median(lateP99s)
	return res
}

// pathReply mirrors the server's single-pair path response.
type pathReply struct {
	Paths    []int  `json:"paths"`
	Gen      uint64 `json:"gen"`
	Degraded bool   `json:"degraded"`
}

// maxLoadReply mirrors the server's maxload response.
type maxLoadReply struct {
	MaxLoad float64 `json:"max_load"`
	Flows   int     `json:"flows"`
}

// decodeReply parses a reply body into the paths served per requested
// pair, with the generation they were served at.
func decodeReply(req *request, body []byte) (paths [][]int, gen uint64, degraded bool, err error) {
	switch req.kind {
	case kindPath:
		var pr pathReply
		if err := json.Unmarshal(body, &pr); err != nil {
			return nil, 0, false, err
		}
		return [][]int{pr.Paths}, pr.Gen, pr.Degraded, nil
	case kindBatch:
		fr, err := serve.DecodeBatchFrame(body)
		if err != nil {
			return nil, 0, false, err
		}
		if len(fr.Paths) != len(req.pairs) {
			return nil, 0, false, fmt.Errorf("batch answered %d of %d pairs", len(fr.Paths), len(req.pairs))
		}
		paths = make([][]int, len(fr.Paths))
		for i, ids := range fr.Paths {
			paths[i] = make([]int, len(ids))
			for j, id := range ids {
				paths[i][j] = int(id)
			}
		}
		return paths, fr.Gen, fr.Degraded, nil
	}
	var ml maxLoadReply
	if err := json.Unmarshal(body, &ml); err != nil {
		return nil, 0, false, err
	}
	if ml.Flows < 1 || ml.MaxLoad < 1 || math.IsNaN(ml.MaxLoad) {
		return nil, 0, false, fmt.Errorf("maxload %v over %d flows", ml.MaxLoad, ml.Flows)
	}
	return nil, 0, false, nil
}
