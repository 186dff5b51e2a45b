package flit

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xgftsim/internal/core"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/engine_golden.txt from the current engine")

const engineGoldenPath = "testdata/engine_golden.txt"

// goldenFabric is one fabric of the engine golden matrix. shared runs
// its engines over one RouteTable (hydrated from a compiled table when
// compile is set) instead of engine-local route caches.
type goldenFabric struct {
	name    string
	topo    *topology.Topology
	sel     core.Selector
	k       int
	shared  bool
	compile bool
}

// engineGoldenCases enumerates the golden matrix: every selector × VCs
// {1, 3} × VC scheme {rr-injection, dest-subtree} × {Poisson, bursty}
// × {healthy, one failed link} × load {0.3, 0.9} on three fabrics. The
// failed link is a processor's only inbound link, so oblivious runs
// stall (and, drained, end in the watchdog's diagnosis) while adaptive
// runs discard the packets headed there. The radix-80 leaf switches of
// XGFT(2;40,3;1,40) take the multi-word inbound-mask path.
func engineGoldenCases(t testing.TB) ([]string, []Config) {
	fabrics := []goldenFabric{
		{name: "xgft2-4.4-1.4", topo: topology.MustNew(2, []int{4, 4}, []int{1, 4}), sel: core.Disjoint{}, k: 4},
		{name: "xgft3-4.4.4-1.4.2", topo: topology.MustNew(3, []int{4, 4, 4}, []int{1, 4, 2}), sel: core.RandomK{}, k: 4, shared: true, compile: true},
		{name: "xgft2-40.3-1.40", topo: topology.MustNew(2, []int{40, 3}, []int{1, 40}), sel: core.Disjoint{}, k: 4, shared: true},
	}
	var names []string
	var cfgs []Config
	for _, f := range fabrics {
		r := core.NewRouting(f.topo, f.sel, f.k, 3)
		var rt *RouteTable
		if f.shared {
			var comp *core.CompiledRouting
			if f.compile {
				var err error
				if comp, err = core.CompileRouting(r, 1<<30); err != nil {
					t.Fatal(err)
				}
			}
			rt = NewRouteTable(r, comp)
		}
		dead := topology.LinkID(f.topo.DownLink(5, 0))
		for _, sel := range []OutputSelector{SelectOblivious, SelectAdaptive, SelectAdaptiveK} {
			for _, vcs := range []int{1, 3} {
				for _, vcs2 := range []VCScheme{VCRoundRobin, VCDestSubtree} {
					for _, burst := range []float64{1, 4} {
						for _, failed := range []bool{false, true} {
							for _, load := range []float64{0.3, 0.9} {
								cfg := Config{
									Routing:         r,
									Pattern:         traffic.UniformPattern{N: f.topo.NumProcessors()},
									OfferedLoad:     load,
									VirtualChannels: vcs,
									VCScheme:        vcs2,
									BurstMean:       burst,
									Selector:        sel,
									Routes:          rt,
									WarmupCycles:    100,
									MeasureCycles:   500,
									Seed:            11,
									DelayHistogram:  true,
								}
								if failed {
									cfg.FailedLinks = []topology.LinkID{dead}
									cfg.Drain = true
								}
								names = append(names, fmt.Sprintf("%s/%v/vc%d/%v/burst%g/failed=%v/load%g",
									f.name, sel, vcs, vcs2, burst, failed, load))
								cfgs = append(cfgs, cfg)
							}
						}
					}
				}
			}
		}
	}
	return names, cfgs
}

// TestEngineGolden pins every Result field of the golden matrix to the
// values recorded in testdata/engine_golden.txt, so an engine change
// that is meant to be a pure speed-up must leave each run bitwise
// identical. Run with -update to re-record after an intended change of
// the simulated model.
func TestEngineGolden(t *testing.T) {
	names, cfgs := engineGoldenCases(t)
	got := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		// plainResult drops Result's String method, so %+v prints
		// every field, floats in their shortest exact form.
		type plainResult Result
		got[i] = fmt.Sprintf("%s %+v", names[i], plainResult(res))
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(engineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d runs)", engineGoldenPath, len(got))
		return
	}
	f, err := os.Open(engineGoldenPath)
	if err != nil {
		t.Fatalf("%v (record it with go test -run TestEngineGolden -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d runs, matrix has %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("run %d differs:\n got  %s\n want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... %d of %d runs differ in all", bad, len(got))
	}
}
