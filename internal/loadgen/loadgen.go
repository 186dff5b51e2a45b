// Package loadgen drives the serve control plane's query API at high
// rate and reports latency quantiles. It supports two loops:
//
//   - Closed loop: Concurrency workers issue back-to-back requests;
//     throughput is whatever the server sustains. Good for peak-qps
//     measurement, blind to queueing delay.
//   - Open loop (TargetQPS > 0): requests are released on a fixed
//     schedule independent of responses, and each latency is measured
//     from the request's *scheduled* time, not its send time. A slow
//     server therefore shows up as growing latency (queueing delay is
//     charged to the laggards) instead of silently shedding load —
//     the standard defense against coordinated omission.
//
// The request mix blends single-pair path queries, batched path
// queries (JSON or the binary frame), and maxload evaluations, with a
// background fault-churn goroutine optionally flapping a cable to
// measure tail latency while the control plane is repairing.
//
// Latencies land in per-worker stats.DurationHist instances (no
// cross-worker contention) merged after the run.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xgftsim/internal/serve"
	"xgftsim/internal/stats"
)

// Mix weights the request types; zero-weight kinds are never issued.
// The default (all zero) means path-only.
type Mix struct {
	Path    int
	Batch   int
	MaxLoad int
}

func (m Mix) total() int { return m.Path + m.Batch + m.MaxLoad }

// Config parameterizes one load run against a serve instance.
type Config struct {
	BaseURL   string // http://host:port of the serve API
	Fabric    string // fabric name to query
	Endpoints int    // processor count; sources/destinations draw from [0,Endpoints)

	Concurrency int           // workers (default 4)
	Duration    time.Duration // stop after this long (default 1s when Requests == 0)
	Requests    int           // or after this many requests (0 = duration only)

	// TargetQPS > 0 switches to the open loop at that aggregate rate.
	TargetQPS float64

	Mix       Mix
	BatchSize int  // pairs per batch request (default 64)
	K         int  // per-batch path limit (0 = all)
	Binary    bool // batch requests negotiate the binary frame

	// ChurnPeriod > 0 flaps a cable fault every period from a
	// background goroutine while the run is in flight.
	ChurnPeriod time.Duration
	ChurnNode   int // child node of the flapped cable

	Seed   int64
	Client *http.Client // default http.DefaultClient
}

// Result is the merged outcome of a run.
type Result struct {
	Requests int64         // requests completed with 200
	Pairs    int64         // pairs answered (batch counts BatchSize per request)
	Errors   int64         // non-2xx (except 429) responses and transport errors
	Query429 int64         // query throttles (429) retried after Retry-After
	Churn    int64         // churn events admitted in the background
	Churn429 int64         // churn events rejected by backpressure
	Elapsed  time.Duration // wall time of the measurement window

	QPS         float64 // completed requests / elapsed
	PairsPerSec float64

	P50, P95, P99, Max time.Duration
	Mean               time.Duration
	Hist               *stats.DurationHist
}

func (r *Result) String() string {
	return fmt.Sprintf("%d req (%d pairs) in %v: %.0f qps, %.0f pairs/s, p50 %v p95 %v p99 %v max %v, %d errors, %d throttled",
		r.Requests, r.Pairs, r.Elapsed.Round(time.Millisecond), r.QPS, r.PairsPerSec,
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond), r.Errors, r.Query429)
}

// reqKind is one drawn request type.
type reqKind int

const (
	kindPath reqKind = iota
	kindBatch
	kindMaxLoad
)

// worker holds one goroutine's private state: its RNG, its histogram,
// and reusable request scratch (URL and batch-body buffers), so the
// measurement loop itself allocates as little as possible.
type worker struct {
	cfg      *Config
	patterns []string // maxload patterns valid on the fabric
	rng      *rand.Rand
	hist     stats.DurationHist
	url      []byte
	body     bytes.Buffer

	requests int64
	pairs    int64
	errors   int64
	query429 int64
}

func (w *worker) draw() reqKind {
	m := w.cfg.Mix
	t := m.total()
	if t == 0 {
		return kindPath
	}
	r := w.rng.Intn(t)
	if r < m.Path {
		return kindPath
	}
	if r < m.Path+m.Batch {
		return kindBatch
	}
	return kindMaxLoad
}

// maxloadPatterns lists the patterns a maxload request may draw on a
// fabric of the given size. Bit-complement exists only for
// power-of-two sizes (traffic.BitComplement); on any other fabric the
// server answers it 400 every time, which would be the generator's
// error, not the server's.
func maxloadPatterns(endpoints int) []string {
	if endpoints&(endpoints-1) != 0 {
		return []string{"shift", "random"}
	}
	return []string{"shift", "random", "bitcomp"}
}

// issue sends one request and reports whether it succeeded; the
// response body is drained so the connection is reused. A 429 from the
// server is backpressure, not a failure: it is tallied separately, the
// worker honors the Retry-After header (bounded), and the request is
// retried until it resolves or the run window closes.
func (w *worker) issue(ctx context.Context, kind reqKind) bool {
	cfg := w.cfg
	client := cfg.Client
	var method, url string
	var body []byte
	switch kind {
	case kindBatch:
		w.body.Reset()
		w.body.WriteString(`{"pairs":[`)
		for i := 0; i < cfg.BatchSize; i++ {
			if i > 0 {
				w.body.WriteByte(',')
			}
			fmt.Fprintf(&w.body, "[%d,%d]", w.rng.Intn(cfg.Endpoints), w.rng.Intn(cfg.Endpoints))
		}
		w.body.WriteString(`],"k":`)
		w.body.WriteString(strconv.Itoa(cfg.K))
		w.body.WriteByte('}')
		method, url = "POST", cfg.BaseURL+"/fabrics/"+cfg.Fabric+"/paths"
		body = w.body.Bytes()
	case kindMaxLoad:
		w.url = w.url[:0]
		w.url = append(w.url, cfg.BaseURL...)
		w.url = append(w.url, "/fabrics/"...)
		w.url = append(w.url, cfg.Fabric...)
		w.url = append(w.url, "/maxload?pattern="...)
		w.url = append(w.url, w.patterns[w.rng.Intn(len(w.patterns))]...)
		w.url = append(w.url, "&arg="...)
		w.url = strconv.AppendInt(w.url, int64(1+w.rng.Intn(cfg.Endpoints-1)), 10)
		method, url = "GET", string(w.url)
	default:
		w.url = w.url[:0]
		w.url = append(w.url, cfg.BaseURL...)
		w.url = append(w.url, "/fabrics/"...)
		w.url = append(w.url, cfg.Fabric...)
		w.url = append(w.url, "/path?src="...)
		w.url = strconv.AppendInt(w.url, int64(w.rng.Intn(cfg.Endpoints)), 10)
		w.url = append(w.url, "&dst="...)
		w.url = strconv.AppendInt(w.url, int64(w.rng.Intn(cfg.Endpoints)), 10)
		method, url = "GET", string(w.url)
	}
	for {
		// A fresh reader per attempt: a retried POST must resend the
		// full body, which a consumed bytes.Buffer cannot.
		var br io.Reader
		if body != nil {
			br = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, br)
		if err != nil {
			w.errors++
			return false
		}
		if kind == kindBatch && cfg.Binary {
			req.Header.Set("Accept", serve.BinaryBatchContentType)
		}
		resp, err := client.Do(req)
		if err != nil {
			w.errors++
			return false
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		retryAfter := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if cerr != nil {
			w.errors++
			return false
		}
		switch resp.StatusCode {
		case http.StatusOK:
			w.requests++
			if kind == kindBatch {
				w.pairs += int64(cfg.BatchSize)
			} else {
				w.pairs++
			}
			return true
		case http.StatusTooManyRequests:
			w.query429++
			select {
			case <-time.After(retryAfterDelay(retryAfter)):
			case <-ctx.Done():
				return false
			}
		default:
			w.errors++
			return false
		}
	}
}

// retryAfterDelay converts a Retry-After header (delta-seconds form)
// into a wait. Missing or malformed headers fall back to a short
// pause, and the wait is bounded so a hostile or confused server
// cannot park a worker past the run window.
func retryAfterDelay(h string) time.Duration {
	const fallback = 10 * time.Millisecond
	const maxWait = 2 * time.Second
	secs, err := strconv.ParseFloat(h, 64)
	if err != nil || secs < 0 {
		return fallback
	}
	d := time.Duration(secs * float64(time.Second))
	if d > maxWait {
		return maxWait
	}
	return d
}

// Run executes the configured load and blocks until the measurement
// window closes (or ctx cancels, whichever is first).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.BaseURL == "" || cfg.Fabric == "" {
		return nil, fmt.Errorf("loadgen: BaseURL and Fabric are required")
	}
	if cfg.Endpoints < 2 {
		return nil, fmt.Errorf("loadgen: Endpoints must be >= 2, got %d", cfg.Endpoints)
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.Duration <= 0 && cfg.Requests <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if cfg.Duration > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, cfg.Duration)
		defer tcancel()
	}

	var churn churnState
	if cfg.ChurnPeriod > 0 {
		churn.start(ctx, &cfg)
	}

	patterns := maxloadPatterns(cfg.Endpoints)
	workers := make([]*worker, cfg.Concurrency)
	for i := range workers {
		workers[i] = &worker{cfg: &cfg, patterns: patterns, rng: stats.Stream(cfg.Seed, int64(i))}
	}

	// remaining caps total requests when cfg.Requests > 0.
	var issued atomic.Int64
	budget := int64(cfg.Requests)
	take := func() bool {
		if budget <= 0 {
			return ctx.Err() == nil
		}
		return issued.Add(1) <= budget && ctx.Err() == nil
	}

	start := time.Now()
	var wg sync.WaitGroup
	if cfg.TargetQPS > 0 {
		// Open loop: a global tick counter hands out scheduled send
		// times; latency is measured from the schedule, so time a
		// request spends waiting behind a slow server still counts.
		interval := float64(time.Second) / cfg.TargetQPS
		var tick atomic.Int64
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for take() {
					i := tick.Add(1) - 1
					sched := start.Add(time.Duration(float64(i) * interval))
					if d := time.Until(sched); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
					if w.issue(ctx, w.draw()) {
						w.hist.Observe(time.Since(sched))
					}
				}
			}(w)
		}
	} else {
		// Closed loop: back-to-back requests, latency from send time.
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for take() {
					t0 := time.Now()
					if w.issue(ctx, w.draw()) {
						w.hist.Observe(time.Since(t0))
					}
				}
			}(w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	cancel()
	churn.wait()

	res := &Result{Elapsed: elapsed, Hist: &stats.DurationHist{},
		Churn: churn.admitted.Load(), Churn429: churn.rejected.Load()}
	for _, w := range workers {
		res.Requests += w.requests
		res.Pairs += w.pairs
		res.Errors += w.errors
		res.Query429 += w.query429
		res.Hist.Merge(&w.hist)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.QPS = float64(res.Requests) / sec
		res.PairsPerSec = float64(res.Pairs) / sec
	}
	res.P50 = res.Hist.Quantile(0.50)
	res.P95 = res.Hist.Quantile(0.95)
	res.P99 = res.Hist.Quantile(0.99)
	res.Max = res.Hist.Max()
	res.Mean = res.Hist.Mean()
	return res, nil
}

// churnState runs the background fault flapper: fail, wait, heal,
// wait, repeat. 429 backpressure responses are expected under load
// and counted separately from hard errors; the flapper always leaves
// the fabric healed on exit (best effort).
type churnState struct {
	wg       sync.WaitGroup
	admitted atomic.Int64
	rejected atomic.Int64
}

func (c *churnState) start(ctx context.Context, cfg *Config) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		failed := false
		post := func(op string) {
			body, _ := json.Marshal(map[string]any{
				"op": op, "kind": "cable", "node": cfg.ChurnNode, "port": 0,
			})
			resp, err := cfg.Client.Post(cfg.BaseURL+"/fabrics/"+cfg.Fabric+"/faults",
				"application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, http.StatusAccepted:
				c.admitted.Add(1)
				failed = op == "fail"
			case http.StatusTooManyRequests:
				c.rejected.Add(1)
			}
		}
		t := time.NewTicker(cfg.ChurnPeriod)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				if failed {
					post("heal")
				}
				return
			case <-t.C:
				if failed {
					post("heal")
				} else {
					post("fail")
				}
			}
		}
	}()
}

func (c *churnState) wait() { c.wg.Wait() }
