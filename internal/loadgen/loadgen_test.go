package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"xgftsim/internal/experiments"
	"xgftsim/internal/serve"
)

// bootServer starts an in-process serve instance over the small edge
// fabric and returns its base URL.
func bootServer(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{
		Fabrics: []serve.FabricSpec{{Name: "edge", XGFT: "2;4,4;1,4", Scheme: "d-mod-k", K: 4, Seed: 2012}},
		Dir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s.Start(ctx)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return hs.URL
}

func TestRunClosedLoop(t *testing.T) {
	url := bootServer(t)
	res, err := Run(context.Background(), Config{
		BaseURL: url, Fabric: "edge", Endpoints: 16,
		Concurrency: 4, Requests: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors: %v", res.Errors, res)
	}
	if res.Requests != 200 || res.Pairs != 200 {
		t.Fatalf("completed %d requests / %d pairs, want 200/200", res.Requests, res.Pairs)
	}
	if res.Hist.Count() != res.Requests {
		t.Errorf("histogram holds %d samples, want %d", res.Hist.Count(), res.Requests)
	}
	if res.QPS <= 0 || res.P50 <= 0 || res.P99 < res.P50 || res.Max < res.P99 {
		t.Errorf("implausible quantiles: %v", res)
	}
}

func TestRunBatchAndMaxLoad(t *testing.T) {
	url := bootServer(t)
	for _, binary := range []bool{false, true} {
		res, err := Run(context.Background(), Config{
			BaseURL: url, Fabric: "edge", Endpoints: 16,
			Concurrency: 2, Requests: 20, Seed: 2,
			Mix: Mix{Batch: 1}, BatchSize: 32, Binary: binary,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 || res.Requests != 20 {
			t.Fatalf("binary=%v: %v", binary, res)
		}
		if res.Pairs != 20*32 {
			t.Fatalf("binary=%v: %d pairs, want %d", binary, res.Pairs, 20*32)
		}
	}
	res, err := Run(context.Background(), Config{
		BaseURL: url, Fabric: "edge", Endpoints: 16,
		Concurrency: 2, Requests: 12, Seed: 3,
		Mix: Mix{Path: 1, Batch: 1, MaxLoad: 1}, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Requests != 12 {
		t.Fatalf("mixed run: %v", res)
	}
}

// TestMaxLoadOnNonPowerOfTwoFabric pins the pattern draw: on a fabric
// whose endpoint count is not a power of two the maxload mix must not
// request bit-complement (which the server rightly refuses there), so
// no request fails.
func TestMaxLoadOnNonPowerOfTwoFabric(t *testing.T) {
	s, err := serve.New(serve.Config{
		Fabrics: []serve.FabricSpec{{Name: "odd", XGFT: "2;4,3;1,4", Scheme: "disjoint", K: 4, Seed: 2012}},
		Dir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s.Start(ctx)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	res, err := Run(context.Background(), Config{
		BaseURL: hs.URL, Fabric: "odd", Endpoints: 12,
		Concurrency: 2, Requests: 120, Seed: 4,
		Mix: Mix{MaxLoad: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Requests != 120 {
		t.Fatalf("%d of %d maxload requests failed on a 12-endpoint fabric: %v", res.Errors, res.Requests, res)
	}
}

func TestRunOpenLoop(t *testing.T) {
	url := bootServer(t)
	res, err := Run(context.Background(), Config{
		BaseURL: url, Fabric: "edge", Endpoints: 16,
		Concurrency: 4, Duration: 300 * time.Millisecond,
		TargetQPS: 500, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	// The schedule releases ~Duration*QPS requests; allow wide slack
	// for slow CI but catch a broken (unpaced or stalled) loop.
	want := 0.3 * 500
	if float64(res.Requests) < want/3 || float64(res.Requests) > want*2 {
		t.Errorf("open loop completed %d requests, scheduled ~%.0f", res.Requests, want)
	}
}

func TestRunChurn(t *testing.T) {
	url := bootServer(t)
	res, err := Run(context.Background(), Config{
		BaseURL: url, Fabric: "edge", Endpoints: 16,
		Concurrency: 2, Duration: 400 * time.Millisecond, Seed: 5,
		ChurnPeriod: 40 * time.Millisecond, ChurnNode: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Churn == 0 {
		t.Error("churn flapper admitted no events")
	}
	if res.Errors != 0 {
		t.Errorf("%d query errors during churn", res.Errors)
	}
}

// TestQuery429RetryAfter serves alternating 429 (with Retry-After: 0)
// and 200 responses: every request must eventually complete, the
// throttles must land in Query429, and none of them may count as an
// error.
func TestQuery429RetryAfter(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer hs.Close()
	res, err := Run(context.Background(), Config{
		BaseURL: hs.URL, Fabric: "edge", Endpoints: 16,
		Concurrency: 2, Requests: 40, Duration: 5 * time.Second, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors; throttles must not count as errors: %v", res.Errors, res)
	}
	if res.Requests != 40 {
		t.Fatalf("completed %d requests, want 40 (throttled requests must retry to completion)", res.Requests)
	}
	if res.Query429 == 0 {
		t.Fatal("no 429s tallied despite the server throttling every other request")
	}
}

func TestRetryAfterDelay(t *testing.T) {
	for _, tc := range []struct {
		h    string
		want time.Duration
	}{
		{"", 10 * time.Millisecond},
		{"garbage", 10 * time.Millisecond},
		{"-1", 10 * time.Millisecond},
		{"0", 0},
		{"0.05", 50 * time.Millisecond},
		{"1", time.Second},
		{"3600", 2 * time.Second}, // bounded
	} {
		if got := retryAfterDelay(tc.h); got != tc.want {
			t.Errorf("retryAfterDelay(%q) = %v, want %v", tc.h, got, tc.want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{BaseURL: "http://x", Fabric: "edge", Endpoints: 1},
		{Fabric: "edge", Endpoints: 16},
	} {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestServeBenchSmoke runs the full experiment at quick scale (this is
// the `make ci` smoke: race-enabled, in-process) and pins the two
// load-bearing acceptance properties — batching multiplies pair
// throughput at equal concurrency, and open-loop p99 stays measurable
// and error-free while churn is flapping a cable.
func TestServeBenchSmoke(t *testing.T) {
	scale, err := experiments.ScaleByName("quick")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ServeBench(scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.XValues) != 5 || len(tab.Cells) != 5 {
		t.Fatalf("want 5 scenarios, got %d", len(tab.XValues))
	}
	col := func(name string) int {
		for i, c := range tab.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing from %v", name, tab.Columns)
		return -1
	}
	row := func(name string) []experiments.Cell {
		for i, x := range tab.XValues {
			if x == name {
				return tab.Cells[i]
			}
		}
		t.Fatalf("row %q missing from %v", name, tab.XValues)
		return nil
	}
	qps, pairs, p99, errs, churn :=
		col("qps"), col("pairs/s"), col("p99 us"), col("errors"), col("churn evs")

	for i, x := range tab.XValues {
		if tab.Cells[i][qps].Mean <= 0 {
			t.Errorf("%s: zero qps", x)
		}
		if tab.Cells[i][errs].Mean != 0 {
			t.Errorf("%s: %v errors", x, tab.Cells[i][errs].Mean)
		}
	}
	// Acceptance: batch pair throughput >= 5x single-request qps at
	// equal concurrency.
	single := row("single/closed")[qps].Mean
	batch := row("batch/closed")[pairs].Mean
	if batch < 5*single {
		t.Errorf("batch pairs/s %.0f < 5x single qps %.0f", batch, single)
	}
	// Churned open loop still reports a meaningful (bounded) p99.
	churned := row("mixed/open+churn")
	if churned[p99].Mean <= 0 {
		t.Error("open+churn: no p99 measured")
	}
	if churned[churn].Mean == 0 {
		t.Error("open+churn: churn flapper admitted no events")
	}
}
