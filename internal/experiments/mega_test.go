package experiments

import (
	"math"
	"testing"

	"xgftsim/internal/core"
	"xgftsim/internal/flow"
	"xgftsim/internal/obs"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// TestMegaFabricSweepMatchesLazy pins the whole mega pipeline against
// a direct lazy recomputation: with one worker the sharded
// segment-ordered walk must reproduce per-sample lazy maxima bit for
// bit, so the table means and half-widths match exactly.
func TestMegaFabricSweepMatchesLazy(t *testing.T) {
	topo := topology.MustNew(3, []int{4, 4, 4}, []int{1, 4, 4})
	cfg := MegaConfig{
		Topo:         topo,
		Ks:           []int{1, 2, 4},
		Samples:      6,
		PermSeed:     17,
		Schemes:      []core.Selector{core.DModK{}, core.Disjoint{}},
		SegmentBytes: 32 << 10,
		Workers:      1,
	}
	tbl, err := MegaFabricSweep(cfg)
	if err != nil {
		t.Fatalf("MegaFabricSweep: %v", err)
	}
	if len(tbl.XValues) != len(cfg.Ks) || len(tbl.Columns) != len(cfg.Schemes) {
		t.Fatalf("table shape %dx%d, want %dx%d", len(tbl.XValues), len(tbl.Columns), len(cfg.Ks), len(cfg.Schemes))
	}

	n := topo.NumProcessors()
	tms := make([]*traffic.Matrix, cfg.Samples)
	for i := range tms {
		tms[i] = traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(cfg.PermSeed, int64(i))))
	}
	for j, sel := range cfg.Schemes {
		for row, k := range cfg.Ks {
			ev := flow.NewEvaluator(core.NewRouting(topo, sel, k, 0))
			var acc stats.Accumulator
			for _, tm := range tms {
				acc.Add(ev.MaxLoad(tm))
			}
			cell := tbl.Cells[row][j]
			if cell.Mean != acc.Mean() {
				t.Fatalf("%s K=%d: mega mean %v != lazy %v", sel.Name(), k, cell.Mean, acc.Mean())
			}
			if cell.HalfWidth != acc.ConfidenceHalfWidth(0.99) {
				t.Fatalf("%s K=%d: mega half-width %v != lazy %v", sel.Name(), k, cell.HalfWidth, acc.ConfidenceHalfWidth(0.99))
			}
			if cell.Samples != cfg.Samples {
				t.Fatalf("%s K=%d: %d samples, want %d", sel.Name(), k, cell.Samples, cfg.Samples)
			}
		}
	}
}

// TestMegaFabricSweepParallelMatchesSequential checks shard-count
// invariance: the same config at higher worker counts produces the
// same table (shards merge by summation of disjoint segment ranges).
func TestMegaFabricSweepParallelMatchesSequential(t *testing.T) {
	topo := topology.MustNew(3, []int{4, 4, 4}, []int{1, 4, 4})
	base := MegaConfig{
		Topo:         topo,
		Ks:           []int{1, 4},
		Samples:      4,
		PermSeed:     23,
		Schemes:      []core.Selector{core.RandomK{}},
		RandSeeds:    []int64{101, 202},
		SegmentBytes: 32 << 10,
		Workers:      1,
	}
	seq, err := MegaFabricSweep(base)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par := base
	par.Workers = 4
	got, err := MegaFabricSweep(par)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	for r := range seq.Cells {
		for c := range seq.Cells[r] {
			if seq.Cells[r][c].Mean != got.Cells[r][c].Mean {
				t.Fatalf("cell (%d,%d): parallel %v != sequential %v", r, c, got.Cells[r][c].Mean, seq.Cells[r][c].Mean)
			}
		}
	}
}

// TestMegaQuickScaleWithCache runs the quick-scale mega experiment
// twice against one cache directory: identical tables, and the second
// run must hit the segment cache — through the scale's random-K
// column, the only one that builds tables.
func TestMegaQuickScaleWithCache(t *testing.T) {
	topt := TableOptions{CacheDir: t.TempDir(), SegmentBytes: 64 << 10}
	sc := QuickScale()
	sc.Workers = 2
	cold, err := Mega(sc, 2012, topt)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	hits := obs.Default().Counter("core.segments_cache_hit")
	before := hits.Value()
	warm, err := Mega(sc, 2012, topt)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if hits.Value() == before {
		t.Fatalf("warm mega run hit the segment cache zero times")
	}
	for r := range cold.Cells {
		for c := range cold.Cells[r] {
			if cold.Cells[r][c] != warm.Cells[r][c] {
				t.Fatalf("cell (%d,%d) changed across cache reuse: %+v vs %+v", r, c, cold.Cells[r][c], warm.Cells[r][c])
			}
		}
	}
}

// TestMegaUnitTableFreeMatchesShardedLazy pins the table-free path
// through runMegaUnit on an asymmetric fabric at path limits that are
// not powers of two, for every closed-form selector and 1, 2 and 3
// workers. The reference re-does the unit's arithmetic with the lazy
// evaluator: each shard's flows (the sources of its segment range)
// evaluated on their own, the shard rows summed per link in shard
// order, then the maximum — so every worker count is held to the bit,
// not just the single-shard walk. No segment may be compiled on the
// way; a random-K unit on the same fabric must still compile some.
func TestMegaUnitTableFreeMatchesShardedLazy(t *testing.T) {
	topo := topology.MustNew(3, []int{4, 3, 2}, []int{1, 2, 3})
	n := topo.NumProcessors()
	ks := []int{1, 2, 3, 5, topo.MaxPaths()}
	kmax := ks[len(ks)-1]
	cfg := MegaConfig{Topo: topo, Samples: 5, PermSeed: 31, SegmentBytes: 4 << 10}
	perms := make([]*traffic.Matrix, cfg.Samples)
	var flows int64 // fixed points of a permutation carry no flow
	for i := range perms {
		perms[i] = traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(cfg.PermSeed, int64(i))))
		flows += int64(perms[i].NumFlows())
	}
	compiled := obs.Default().Counter("core.segments_compiled")
	derived := obs.Default().Counter("flow.block_rows_derived")
	sels := []core.Selector{core.DModK{}, core.SModK{}, core.Shift1{}, core.Disjoint{}, core.UMulti{}}
	for _, sel := range sels {
		for _, workers := range []int{1, 2, 3} {
			cfg.Workers = workers
			b := core.NewBlockCompiledRouting(core.NewRouting(topo, sel, kmax, 0), core.BlockOptions{SegmentBytes: cfg.SegmentBytes})
			nSeg := b.NumSegments()
			if nSeg < workers {
				t.Fatalf("%d segments cannot feed %d shards", nSeg, workers)
			}
			compiled0, derived0 := compiled.Value(), derived.Value()
			vals, err := runMegaUnit(cfg, b, ks, 512<<20)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sel.Name(), workers, err)
			}
			if d := compiled.Value() - compiled0; d != 0 {
				t.Fatalf("%s workers=%d: closed-form unit compiled %d segments", sel.Name(), workers, d)
			}
			if d := derived.Value() - derived0; d != flows {
				t.Fatalf("%s workers=%d: %d rows derived, want %d (one per flow)", sel.Name(), workers, d, flows)
			}
			for j, k := range ks {
				lazy := flow.NewEvaluator(core.NewRouting(topo, sel, k, 0))
				for i, tm := range perms {
					sum := make([]float64, topo.NumLinks())
					for sh := 0; sh < workers; sh++ {
						lo, _ := b.SegmentSpan(sh * nSeg / workers)
						_, hi := b.SegmentSpan((sh+1)*nSeg/workers - 1)
						part := traffic.NewMatrix(n)
						for _, f := range tm.Flows() {
							if f.Src >= lo && f.Src < hi {
								part.Add(f.Src, f.Dst, f.Amount)
							}
						}
						for l, v := range lazy.Loads(part) {
							sum[l] += v
						}
					}
					want := 0.0
					for _, v := range sum {
						if v > want {
							want = v
						}
					}
					if got := vals[i][j]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s workers=%d K=%d sample %d: table-free %v != sharded lazy %v", sel.Name(), workers, k, i, got, want)
					}
				}
			}
			b.Close()
		}
	}

	cfg.Workers = 2
	b := core.NewBlockCompiledRouting(core.NewRouting(topo, core.RandomK{}, kmax, 101), core.BlockOptions{SegmentBytes: cfg.SegmentBytes})
	defer b.Close()
	compiled0, derived0 := compiled.Value(), derived.Value()
	if _, err := runMegaUnit(cfg, b, ks, 512<<20); err != nil {
		t.Fatalf("random-K unit: %v", err)
	}
	if compiled.Value() == compiled0 {
		t.Fatalf("random-K unit compiled no segment: generic selectors must keep their tables")
	}
	if d := derived.Value() - derived0; d != 0 {
		t.Fatalf("random-K unit derived %d rows", d)
	}
}
