package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xgftsim/internal/cliutil"
	"xgftsim/internal/core"
	"xgftsim/internal/flow"
	"xgftsim/internal/lid"
	"xgftsim/internal/obs"
	"xgftsim/internal/serve"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

const (
	fabricName = "bench"
	// The flapped cable is processor 3's uplink, as in the repo's own
	// servebench: each flap re-selects every pair that node is an end of.
	flapNode    = 3
	flapPeriod  = 50 * time.Millisecond
	batchPairs  = 256
	openRate    = 2000.0 // requests per second, phases (c) and (d)
	openWindows = 5
)

// serveState is the serve-churn workload's set-up: a booted in-process
// server behind a loopback listener, the generated request streams and
// the oracle the replies are checked against.
type serveState struct {
	spec   serve.FabricSpec
	topo   *topology.Topology
	srv    *serve.Server
	fab    *serve.Fabric
	ts     *httptest.Server
	cancel context.CancelFunc
	gen    *generator

	single, batch, mixed []request

	// Oracle: the healthy routing and the same routing repaired with
	// the flapped cable down, both derived independently of the server.
	healthy *core.Routing
	broken  *core.RepairedRouting
	faults  *topology.FaultSet

	flapMu   sync.Mutex
	down     bool // the cable's state after the last admitted event
	events   uint64
	degraded atomic.Int64 // checked replies the server flagged degraded
}

func newServeState(c *runCtx) *serveState {
	s := &serveState{spec: serve.FabricSpec{Name: fabricName, XGFT: "3;8,8,8;1,8,8", Scheme: "disjoint", K: 4, Seed: 2012}}
	if c.smoke {
		s.spec.XGFT = "2;4,4;1,4"
	}
	srv, err := serve.New(serve.Config{Fabrics: []serve.FabricSpec{s.spec}, Dir: c.tempDir("journal-")})
	if err != nil {
		panic(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	s.srv, s.cancel = srv, cancel
	s.fab = srv.Fabric(fabricName)
	s.topo = s.fab.Topology()
	s.ts = httptest.NewServer(srv.Handler())
	// Load rule: no more connections than processors.
	s.gen = &generator{
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: c.procs, MaxConnsPerHost: c.procs}},
		conns:  c.procs,
		verify: s.verify,
	}

	sel, err := core.SelectorByName(s.spec.Scheme)
	if err != nil {
		panic(err)
	}
	s.healthy = core.NewRouting(s.topo, sel, s.spec.K, s.spec.Seed)
	s.faults = topology.NewFaultSet(s.topo)
	if err := s.faults.FailCable(topology.NodeID(flapNode), 0); err != nil {
		panic(err)
	}
	s.broken = s.healthy.MustRepair(s.faults)
	s.generate(c.seed)
	return s
}

func (s *serveState) close() {
	s.ts.Close()
	s.gen.client.CloseIdleConnections()
	s.cancel()
	s.srv.Close()
}

// generate derives the request streams from the seed: single pairs, a
// ring of binary batches, and the open-loop mix of 90% path, 5% batch,
// 5% maxload. Maxload draws only patterns that are defined on this
// fabric's endpoint count.
func (s *serveState) generate(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := s.topo.NumProcessors()
	base := s.ts.URL + "/fabrics/" + fabricName
	pair := func() [2]int {
		a, b := rng.Intn(n), rng.Intn(n-1)
		if b >= a {
			b++
		}
		return [2]int{a, b}
	}
	single := func() request {
		p := pair()
		return request{kind: kindPath, url: base + "/path?src=" + strconv.Itoa(p[0]) + "&dst=" + strconv.Itoa(p[1]), pairs: [][2]int{p}}
	}
	batch := func() request {
		var sb strings.Builder
		sb.WriteString(`{"pairs":[`)
		ps := make([][2]int, batchPairs)
		for i := range ps {
			ps[i] = pair()
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "[%d,%d]", ps[i][0], ps[i][1])
		}
		sb.WriteString(`],"k":0}`)
		return request{kind: kindBatch, url: base + "/paths", body: []byte(sb.String()), pairs: ps}
	}
	var patterns []string
	for _, p := range []string{"shift", "random", "bitcomp"} {
		if _, err := traffic.BuildMatrix(s.topo, p, 1, s.spec.Seed); err == nil {
			patterns = append(patterns, p)
		}
	}
	maxload := func() request {
		p := patterns[rng.Intn(len(patterns))]
		return request{kind: kindMaxLoad, url: base + "/maxload?pattern=" + p + "&arg=" + strconv.Itoa(1+rng.Intn(n-1))}
	}
	for i := 0; i < 1<<14; i++ {
		s.single = append(s.single, single())
	}
	for i := 0; i < 64; i++ {
		s.batch = append(s.batch, batch())
	}
	for i := 0; i < 1<<14; i++ {
		switch r := rng.Intn(100); {
		case r < 90:
			s.mixed = append(s.mixed, single())
		case r < 95:
			s.mixed = append(s.mixed, s.batch[rng.Intn(len(s.batch))])
		default:
			s.mixed = append(s.mixed, maxload())
		}
	}
}

// verify decodes a reply and cross-checks every path it carries
// against the oracle at the generation the reply names: the indices
// must equal the oracle's selection and no path may cross a link that
// was dead at that generation. Events strictly alternate fail/heal
// from a healthy fabric, so the cable is down exactly at odd
// generations.
func (s *serveState) verify(req *request, body []byte) error {
	paths, gen, degraded, err := decodeReply(req, body)
	if err != nil {
		return err
	}
	if degraded {
		s.degraded.Add(1)
		return nil // flagged by the server as stale; not checkable
	}
	down := gen%2 == 1
	up := make([]int, 0, 8)
	var links []topology.LinkID
	for i, served := range paths {
		src, dst := req.pairs[i][0], req.pairs[i][1]
		var want []int
		if down {
			want = s.broken.Paths(src, dst)
		} else {
			want = s.healthy.Paths(src, dst)
		}
		if !slices.Equal(served, want) {
			return fmt.Errorf("pair (%d,%d) at gen %d: served paths %v, oracle %v", src, dst, gen, served, want)
		}
		if !down {
			continue
		}
		k := s.topo.NCALevel(src, dst)
		for _, idx := range served {
			up = core.DecodePathIndex(s.topo, k, idx, up[:0])
			links = s.topo.AppendPathLinksNCA(links[:0], src, dst, k, up)
			for _, l := range links {
				if s.faults.LinkDown(l) {
					return fmt.Errorf("pair (%d,%d) at gen %d: path %d crosses dead link %d", src, dst, gen, idx, l)
				}
			}
		}
	}
	return nil
}

// flap admits the next event of the fail/heal alternation and returns
// its sequence number.
func (s *serveState) flap() uint64 {
	s.flapMu.Lock()
	defer s.flapMu.Unlock()
	op := "fail"
	if s.down {
		op = "heal"
	}
	seq, err := s.fab.Submit(serve.Event{Op: op, Kind: "cable", Node: flapNode, Port: 0})
	if err != nil {
		panic(fmt.Sprintf("benchmark: submit %s: %v", op, err))
	}
	s.events++
	if seq != s.events {
		panic(fmt.Sprintf("benchmark: event %d admitted as seq %d", s.events, seq))
	}
	s.down = !s.down
	return seq
}

// settle waits until the published table reflects every admitted event.
func (s *serveState) settle() {
	for s.fab.Gen() < s.events {
		time.Sleep(100 * time.Microsecond)
	}
}

// churn flaps the cable every flapPeriod until stop is closed, then
// leaves the fabric healed and settled.
func (s *serveState) churn(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(flapPeriod)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			if s.down {
				s.flap()
			}
			s.settle()
			return
		case <-tick.C:
			s.flap()
		}
	}
}

// withChurn runs phase while the cable flaps.
func (s *serveState) withChurn(phase func() phaseResult) phaseResult {
	stop, done := make(chan struct{}), make(chan struct{})
	go s.churn(stop, done)
	res := phase()
	close(stop)
	<-done
	return res
}

// serveReadings is one pass over the five phases.
type serveReadings struct {
	single, churned, batch, open, churnOpen phaseResult
	repairMs, submitMs                      []float64
	maxloadReqs                             int64
	rate                                    float64 // open-loop requests per second
}

// protocol runs the phases in order: (a) closed loop single pair, quiet
// and then with the cable flapping; (b) closed loop binary batches;
// (c) open loop mix; (d) the same under churn; (e) quiet repair.
func (s *serveState) protocol(c *runCtx, parent int32) serveReadings {
	unit := time.Duration(c.seconds / 24 * float64(time.Second))
	flaps, rate := 100, openRate
	if c.smoke {
		unit, flaps, rate = 100*time.Millisecond, 10, 500
	}
	g := s.gen
	g.tr = c.tr
	// Of 20 units, the two phases behind the bounded metrics get 5 each.
	r := serveReadings{rate: rate}
	runtime.GC()
	r.single = g.closedLoop(parent, "client.closed_single", s.single, 5*unit)
	runtime.GC()
	r.churned = s.withChurn(func() phaseResult { return g.closedLoop(parent, "client.closed_single_churn", s.single, 5*unit) })
	r.batch = g.closedLoop(parent, "client.closed_batch", s.batch, 2*unit)
	r.open = g.openLoop(parent, "client.open", s.mixed, rate, openWindows, 4*unit/openWindows)
	r.churnOpen = s.withChurn(func() phaseResult {
		return g.openLoop(parent, "client.open_churn", s.mixed, rate, openWindows, 4*unit/openWindows)
	})

	ph := c.tr.begin(parent, layerServe, "serve.quiet_repair")
	for i := 0; i < flaps; i++ {
		t0 := time.Now()
		seq := s.flap()
		acked := time.Now()
		for s.fab.Gen() < seq {
			runtime.Gosched()
		}
		done := time.Now()
		c.tr.add(ph, layerServe, "serve.submit", t0, acked)
		c.tr.add(ph, layerServe, "serve.repair_publish", acked, done)
		r.submitMs = append(r.submitMs, float64(acked.Sub(t0))/1e6)
		r.repairMs = append(r.repairMs, float64(done.Sub(t0))/1e6)
	}
	c.tr.end(ph)

	for _, p := range []phaseResult{r.single, r.churned, r.batch, r.open, r.churnOpen} {
		c.ops += p.requests + p.failed
		c.failed += p.failed
		r.maxloadReqs += p.byKind[kindMaxLoad]
	}
	c.ops += int64(flaps)
	return r
}

func runServeChurn(c *runCtx) error {
	var s *serveState
	c.setup(func() { s = newServeState(c) }, func() { s.close() })
	defer s.close()
	// Untimed warm-up: connections, pools and the per-snapshot memo.
	warm := time.Second
	if c.smoke {
		warm = 100 * time.Millisecond
	}
	s.gen.closedLoop(0, "warmup", s.mixed, warm)

	reg := obs.Default()
	snap0, mem0 := reg.Snapshot(), readMem()
	r := s.protocol(c, 0)
	delta, mem := reg.Delta(snap0), memSince(mem0)

	c.set("e2e.single_qps", r.single.qps())
	c.set("e2e.churn_qps", r.churned.qps())
	c.set("e2e.batch_pairs_per_s", r.batch.pairsPerSec())
	c.setMedian("e2e.open_p50_ms", r.open.p50s)
	c.setMedian("e2e.open_p99_ms", r.open.p99s)
	c.setMedian("e2e.churn_p50_ms", r.churnOpen.p50s)
	c.setMedian("e2e.churn_p99_ms", r.churnOpen.p99s)
	c.setMedian("e2e.repair_ms", r.repairMs)
	c.set("nominal_per_s", r.single.qps())
	c.set("stressed_per_s", r.churned.qps())
	s.checkReadings(c, "untraced", r)
	if !c.traced {
		return nil
	}

	c.set("client.late_p50_ms", max(r.open.lateP50, r.churnOpen.lateP50))
	c.set("client.late_p99_ms", max(r.open.lateP99, r.churnOpen.lateP99))
	c.set("client.backlog_max", float64(max(r.open.backlogMax, r.churnOpen.backlogMax)))
	c.set("serve.submit_ms.p50", quantile(r.submitMs, 0.50))
	c.set("serve.submit_ms.p99", quantile(r.submitMs, 0.99))
	for _, name := range []string{"serve.table_swaps", "serve.events_accepted", "serve.queue_depth_max", "serve.degraded_responses"} {
		c.set(name, counter(delta, name))
	}
	if r.maxloadReqs > 0 {
		c.set("serve.memo_hit_ratio", counter(delta, "serve.memo_hits")/float64(r.maxloadReqs))
	}
	c.setRuntime(mem)

	c.tr = newTracer()
	root := c.tr.begin(0, layerDriver, "serve-churn")
	replay := s.protocol(c, root)
	c.tr.end(root)
	s.gen.tr = nil
	sum := c.tr.summarize()
	s.checkReadings(c, "traced", replay)
	c.note("prediction: repair_ms = submit p50 + delta repair + swap: measured %.2f ms vs %.2f + core.delta_repair_ms",
		median(r.repairMs), quantile(r.submitMs, 0.5))
	c.set("trace.coverage", sum.coverage)
	c.note("%s", sum.layerShares())
	// The phases are time-boxed, so tracing cannot lengthen them; what
	// it costs shows as closed-loop throughput lost.
	c.set("trace.overhead", r.single.qps()/replay.single.qps()-1)

	s.probes(c, r)
	var err error
	c.traceOut, err = c.tr.write(outDir, c.workload, c.seed)
	return err
}

// checkReadings turns one pass into checks: replies were decoded and
// matched the oracle (a mismatch is counted as a failed request), and
// the open-loop generator kept its schedule.
func (s *serveState) checkReadings(c *runCtx, pass string, r serveReadings) {
	var checked, failed int64
	for _, p := range []phaseResult{r.single, r.churned, r.batch, r.open, r.churnOpen} {
		checked += p.checked
		failed += p.failed
	}
	detail := fmt.Sprintf("%d replies decoded and cross-checked, %d requests failed, %d flagged degraded", checked, failed, s.degraded.Load())
	if s.gen.firstErr != nil {
		detail += "; first failure: " + s.gen.firstErr.Error()
	}
	c.check(pass+": replies match the repaired oracle", checked > 0 && failed == 0, "%s", detail)
	for _, ph := range []struct {
		name string
		p    phaseResult
	}{{"open", r.open}, {"open under churn", r.churnOpen}} {
		// Latency is charged from the due time, so it contains the
		// generator's own lateness. A generator that runs several send
		// slots behind at its p99 is measuring itself, not the server.
		limit := 4 * 1e3 / r.rate
		c.check(pass+": generator on schedule, "+ph.name, ph.p.lateP99 <= limit,
			"lateness p50 %.3f ms p99 %.3f ms max %.3f ms (limit p99 %.1f ms), latency p99 %.3f ms, backlog max %d",
			ph.p.lateP50, ph.p.lateP99, ph.p.lateMax, limit, median(ph.p.p99s), ph.p.backlogMax)
	}
}

// memWriter is an http.ResponseWriter that keeps nothing, for timing
// handlers without sockets.
type memWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// probeHandler times direct Server.ServeHTTP calls on pre-built
// requests and counts their allocations.
func (s *serveState) probeHandler(reqs []request, count int) (nsPerCall, allocsPerCall float64) {
	hreqs := make([]*http.Request, count)
	for i := range hreqs {
		rq := &reqs[i%len(reqs)]
		if rq.kind == kindBatch {
			hreqs[i] = httptest.NewRequest(http.MethodPost, rq.url, strings.NewReader(string(rq.body)))
			hreqs[i].Header.Set("Accept", serve.BinaryBatchContentType)
		} else {
			hreqs[i] = httptest.NewRequest(http.MethodGet, rq.url, nil)
		}
	}
	w := &memWriter{h: make(http.Header)}
	m0 := readMem()
	t0 := time.Now()
	for _, hr := range hreqs {
		w.status = 0
		s.srv.ServeHTTP(w, hr)
		if w.status != 0 && w.status != http.StatusOK {
			panic(fmt.Sprintf("benchmark: handler answered %d to %s", w.status, hr.URL))
		}
	}
	el := time.Since(t0)
	return float64(el.Nanoseconds()) / float64(count), memSince(m0).mallocs / float64(count)
}

func (s *serveState) probes(c *runCtx, r serveReadings) {
	rng := rand.New(rand.NewSource(c.seed))
	t := s.topo
	c.set("topology.build_ms", 1e3*medianSeconds(func() {
		built, err := cliutil.ParseXGFT(s.spec.XGFT)
		if err != nil {
			panic(err)
		}
		built.NewLinkExpander()
	}))
	f5, err := topology.RandomCableFaultFraction(t, c.seed, 0.05)
	if err != nil {
		panic(err)
	}
	pairs := 200000
	if c.smoke {
		pairs = 20000
	}
	c.set("topology.alive_bits_ns_per_pair", probeAliveBits(t, f5, rng, pairs))

	var comp *core.CompiledRouting
	secs := medianSeconds(func() {
		if comp, err = core.CompileRouting(s.healthy, flow.DefaultCompileBudget); err != nil {
			panic(err)
		}
	})
	c.set("core.compile_s", secs)
	c.set("core.compile_mbps", float64(comp.Bytes())/1e6/secs)
	probeDelta(c, comp, s.faults)

	c.set("lid.build_fabric_ms", 1e3*medianSeconds(func() {
		plan, err := lid.NewPlan(t, s.spec.K)
		if err != nil {
			panic(err)
		}
		if _, err := lid.BuildFabric(plan, s.healthy.Selector(), s.spec.Seed); err != nil {
			panic(err)
		}
	}))
	c.set("serve.boot_ms", 1e3*medianSeconds(func() {
		srv, err := serve.New(serve.Config{Fabrics: []serve.FabricSpec{s.spec}, Dir: c.tempDir("boot-")})
		if err != nil {
			panic(err)
		}
		srv.Close()
	}))

	calls := 20000
	if c.smoke {
		calls = 2000
	}
	var maxload []request
	for _, rq := range s.mixed {
		if rq.kind == kindMaxLoad {
			maxload = append(maxload, rq)
		}
	}
	ns, allocs := s.probeHandler(s.single, calls)
	c.set("serve.handler_ns.path", ns)
	c.set("serve.handler_allocs.path", allocs)
	c.set("client.ns_per_req", float64(s.gen.conns)*1e9/r.single.qps()-ns)
	ns, allocs = s.probeHandler(s.batch, calls/20)
	c.set("serve.handler_ns.batch", ns)
	c.set("serve.handler_allocs.batch", allocs)
	ns, _ = s.probeHandler(maxload, calls/20)
	c.set("serve.handler_ns.maxload", ns)

	j, _, err := serve.OpenJournal(filepath.Join(c.tempDir("wal-"), "probe.journal"))
	if err != nil {
		panic(err)
	}
	appends := make([]float64, 200)
	for i := range appends {
		op := "fail"
		if i%2 == 1 {
			op = "heal"
		}
		t0 := time.Now()
		if err := j.Append(serve.Event{Seq: uint64(i + 1), Op: op, Kind: "cable", Node: flapNode}); err != nil {
			panic(err)
		}
		appends[i] = float64(time.Since(t0)) / 1e6
	}
	if err := j.Close(); err != nil {
		panic(err)
	}
	c.set("serve.journal_append_ms.p50", quantile(appends, 0.50))
	c.set("serve.journal_append_ms.p99", quantile(appends, 0.99))
}
