package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"xgftsim/internal/topology"
)

// blockTestTopo is large enough that tiny segment sizes force many
// segments through the streaming machinery.
func blockTestTopo(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4})
}

// TestBlockCompiledMatchesCompiled pins the tentpole contract: every
// pair's CSR row served from a streamed segment is bit-identical to
// the fully compiled table's — same path indices, same concatenated
// links, same path-major layout.
func TestBlockCompiledMatchesCompiled(t *testing.T) {
	topo := blockTestTopo(t)
	n := topo.NumProcessors()
	for _, tc := range []struct {
		name string
		sel  Selector
		k    int
	}{
		{"disjoint-k4", Disjoint{}, 4},
		{"random-k4", RandomK{}, 4},
		{"dmodk-k1", DModK{}, 1},
		{"smodk-k1", SModK{}, 1},
		{"shift1-k3", Shift1{}, 3},
		{"random-single", RandomSingle{}, 1},
		{"umulti", UMulti{}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRouting(topo, tc.sel, tc.k, 7)
			c, err := CompileRouting(r, 1<<30)
			if err != nil {
				t.Fatalf("CompileRouting: %v", err)
			}
			// ~64 KiB segments: forces well over one segment for 128
			// sources.
			b := NewBlockCompiledRouting(r, BlockOptions{SegmentBytes: 64 << 10})
			defer b.Close()
			if b.NumSegments() < 2 {
				t.Fatalf("want multiple segments, got %d", b.NumSegments())
			}
			for g := 0; g < b.NumSegments(); g++ {
				seg, err := b.Segment(g)
				if err != nil {
					t.Fatalf("Segment(%d): %v", g, err)
				}
				lo, hi := b.SegmentSpan(g)
				if seg.SrcLo() != lo || seg.SrcHi() != hi {
					t.Fatalf("segment %d span (%d,%d) != planned (%d,%d)", g, seg.SrcLo(), seg.SrcHi(), lo, hi)
				}
				for src := lo; src < hi; src++ {
					for dst := 0; dst < n; dst++ {
						comparePair(t, c, seg, src, dst)
					}
				}
				b.Release(seg)
			}
		})
	}
}

func comparePair(t *testing.T, c *CompiledRouting, seg *RoutingSegment, src, dst int) {
	t.Helper()
	wantIdx := c.PathIndices(src, dst)
	gotIdx := seg.PathIndices(src, dst)
	if !equalInt32(wantIdx, gotIdx) {
		t.Fatalf("pair (%d,%d): path indices %v != compiled %v", src, dst, gotIdx, wantIdx)
	}
	wantLinks, wantNP := c.PairLinks(src, dst)
	gotLinks, gotNP := seg.PairLinks(src, dst)
	if wantNP != gotNP || !equalInt32(wantLinks, gotLinks) {
		t.Fatalf("pair (%d,%d): links (np=%d) %v != compiled (np=%d) %v", src, dst, gotNP, gotLinks, wantNP, wantLinks)
	}
	wl, wn, ws := c.PairPathLinks(src, dst)
	gl, gn, gs := seg.PairPathLinks(src, dst)
	if wn != gn || ws != gs || !equalInt32(wl, gl) {
		t.Fatalf("pair (%d,%d): path-major links differ", src, dst)
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBlockModeWorksWhereCompileRefuses pins the budget boundary: at a
// budget below the full table estimate CompileRouting errors, while
// block mode walks every segment under the same budget.
func TestBlockModeWorksWhereCompileRefuses(t *testing.T) {
	topo := blockTestTopo(t)
	r := NewRouting(topo, Disjoint{}, 4, 0)
	budget := CompiledBytes(r) - 1
	if _, err := CompileRouting(r, budget); err == nil {
		t.Fatalf("CompileRouting fit a budget below its own estimate")
	}
	b := NewBlockCompiledRouting(r, BlockOptions{SegmentBytes: budget / 8, ResidentBytes: budget})
	defer b.Close()
	var live int64
	for g := 0; g < b.NumSegments(); g++ {
		seg, err := b.Segment(g)
		if err != nil {
			t.Fatalf("Segment(%d): %v", g, err)
		}
		if seg.Bytes() > budget {
			t.Fatalf("segment %d is %d bytes, over the %d budget", g, seg.Bytes(), budget)
		}
		if live = seg.Bytes(); live > budget {
			t.Fatalf("live segment bytes %d exceed budget %d", live, budget)
		}
		b.Release(seg)
	}
}

// TestSegmentCacheRoundTrip pins the cache lifecycle: a cold table
// compiles and writes every segment, a second table over the same key
// maps them back byte-identically, and a different seed (a different
// key) misses.
func TestSegmentCacheRoundTrip(t *testing.T) {
	topo := blockTestTopo(t)
	dir := t.TempDir()
	cache, err := OpenSegmentCache(dir)
	if err != nil {
		t.Fatalf("OpenSegmentCache: %v", err)
	}
	r := NewRouting(topo, RandomK{}, 4, 42)
	opts := BlockOptions{SegmentBytes: 128 << 10, Cache: cache}

	hit0, miss0, wr0 := met.segmentsCacheHit.Value(), met.segmentsCacheMiss.Value(), met.segmentsCacheWrite.Value()
	cold := NewBlockCompiledRouting(r, opts)
	coldSegs := make([][]int32, cold.NumSegments())
	for g := 0; g < cold.NumSegments(); g++ {
		seg, err := cold.Segment(g)
		if err != nil {
			t.Fatalf("cold Segment(%d): %v", g, err)
		}
		coldSegs[g] = append([]int32(nil), seg.links...)
		cold.Release(seg)
	}
	cold.Close()
	if got := met.segmentsCacheMiss.Value() - miss0; got != int64(len(coldSegs)) {
		t.Fatalf("cold run: %d cache misses, want %d", got, len(coldSegs))
	}
	if got := met.segmentsCacheWrite.Value() - wr0; got != int64(len(coldSegs)) {
		t.Fatalf("cold run: %d cache writes, want %d", got, len(coldSegs))
	}

	warm := NewBlockCompiledRouting(NewRouting(topo, RandomK{}, 4, 42), opts)
	defer warm.Close()
	for g := 0; g < warm.NumSegments(); g++ {
		seg, err := warm.Segment(g)
		if err != nil {
			t.Fatalf("warm Segment(%d): %v", g, err)
		}
		if !equalInt32(seg.links, coldSegs[g]) {
			t.Fatalf("warm segment %d differs from cold compile", g)
		}
		warm.Release(seg)
	}
	if got := met.segmentsCacheHit.Value() - hit0; got != int64(len(coldSegs)) {
		t.Fatalf("warm run: %d cache hits, want %d", got, len(coldSegs))
	}

	// A different seed is a different key: all misses, no false hits.
	missBefore := met.segmentsCacheMiss.Value()
	other := NewBlockCompiledRouting(NewRouting(topo, RandomK{}, 4, 43), opts)
	defer other.Close()
	if seg, err := other.Segment(0); err != nil {
		t.Fatalf("other Segment(0): %v", err)
	} else {
		other.Release(seg)
	}
	if got := met.segmentsCacheMiss.Value() - missBefore; got != 1 {
		t.Fatalf("different-seed lookup: %d misses, want 1", got)
	}
}

// TestSegmentCacheRejectsCorruptFiles pins the validation path: a
// truncated or bit-flipped cache file must read as a miss and be
// recompiled, never served.
func TestSegmentCacheRejectsCorruptFiles(t *testing.T) {
	topo := blockTestTopo(t)
	dir := t.TempDir()
	cache, err := OpenSegmentCache(dir)
	if err != nil {
		t.Fatalf("OpenSegmentCache: %v", err)
	}
	opts := BlockOptions{SegmentBytes: 128 << 10, Cache: cache}
	seed := NewBlockCompiledRouting(NewRouting(topo, Disjoint{}, 4, 0), opts)
	seg, err := seed.Segment(0)
	if err != nil {
		t.Fatalf("Segment(0): %v", err)
	}
	want := append([]int32(nil), seg.links...)
	seed.Release(seg)
	seed.Close()

	files, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache files written (err=%v)", err)
	}
	for _, corrupt := range []func(path string) error{
		func(path string) error { // truncate
			st, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, st.Size()-4)
		},
		func(path string) error { // flip a magic byte
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[0] ^= 0xff
			return os.WriteFile(path, data, 0o644)
		},
	} {
		if err := corrupt(files[0]); err != nil {
			t.Fatalf("corrupting %s: %v", files[0], err)
		}
		missBefore := met.segmentsCacheMiss.Value()
		b := NewBlockCompiledRouting(NewRouting(topo, Disjoint{}, 4, 0), opts)
		seg, err := b.Segment(0)
		if err != nil {
			t.Fatalf("Segment(0) after corruption: %v", err)
		}
		if !equalInt32(seg.links, want) {
			t.Fatalf("corrupted cache produced wrong links")
		}
		if met.segmentsCacheMiss.Value() == missBefore {
			t.Fatalf("corrupted file was served as a hit")
		}
		b.Release(seg)
		b.Close()
	}
}

// TestSegmentCacheEviction pins the size cap: writes beyond MaxBytes
// evict oldest records first, and a segment mapped before its record
// was evicted stays fully readable (the unlink only removes the name).
func TestSegmentCacheEviction(t *testing.T) {
	topo := blockTestTopo(t)
	dir := t.TempDir()
	cache, err := OpenSegmentCache(dir)
	if err != nil {
		t.Fatalf("OpenSegmentCache: %v", err)
	}
	r := NewRouting(topo, Disjoint{}, 4, 0)
	seed := NewBlockCompiledRouting(r, BlockOptions{SegmentBytes: 128 << 10, Cache: cache})
	segBytes := int64(0)
	for g := 0; g < seed.NumSegments(); g++ {
		seg, err := seed.Segment(g)
		if err != nil {
			t.Fatalf("Segment(%d): %v", g, err)
		}
		if segBytes == 0 {
			segBytes = seg.Bytes()
		}
		seed.Release(seg)
	}
	numSegs := seed.NumSegments()
	seed.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(files) != numSegs {
		t.Fatalf("%d cache files for %d segments", len(files), numSegs)
	}

	// Map segment 0 from the cache, then cap the cache so the next write
	// evicts everything old — including segment 0's record.
	warm := NewBlockCompiledRouting(r, BlockOptions{SegmentBytes: 128 << 10, Cache: cache})
	defer warm.Close()
	held, err := warm.Segment(0)
	if err != nil {
		t.Fatalf("warm Segment(0): %v", err)
	}
	wantLinks := append([]int32(nil), held.links...)

	cache.SetMaxBytes(2 * segBytes)
	other := NewBlockCompiledRouting(NewRouting(topo, Disjoint{}, 4, 1), BlockOptions{SegmentBytes: 128 << 10, Cache: cache})
	if seg, err := other.Segment(0); err != nil {
		t.Fatalf("other Segment(0): %v", err)
	} else {
		other.Release(seg)
	}
	other.Close()

	var total int64
	left, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	for _, f := range left {
		st, err := os.Stat(f)
		if err == nil {
			total += st.Size()
		}
	}
	if len(left) >= numSegs+1 {
		t.Fatalf("no records evicted: %d files remain", len(left))
	}
	if total > 2*segBytes+4096 {
		t.Fatalf("cache holds %d bytes after eviction, cap %d", total, 2*segBytes)
	}
	// The held (possibly mmap-backed) segment survived its record's
	// eviction: the data reads back intact.
	if !equalInt32(held.links, wantLinks) {
		t.Fatalf("held segment changed after its cache record was evicted")
	}
	warm.Release(held)
}

// TestSegmentCacheHeapFallback runs the cache round trip through the
// non-mmap path (mmap_other.go's behavior) regardless of platform.
func TestSegmentCacheHeapFallback(t *testing.T) {
	forceHeapSegments.Store(true)
	defer forceHeapSegments.Store(false)
	topo := blockTestTopo(t)
	dir := t.TempDir()
	cache, err := OpenSegmentCache(dir)
	if err != nil {
		t.Fatalf("OpenSegmentCache: %v", err)
	}
	r := NewRouting(topo, Disjoint{}, 4, 0)
	opts := BlockOptions{SegmentBytes: 128 << 10, Cache: cache}
	cold := NewBlockCompiledRouting(r, opts)
	want := make([][]int32, cold.NumSegments())
	for g := 0; g < cold.NumSegments(); g++ {
		seg, err := cold.Segment(g)
		if err != nil {
			t.Fatalf("cold Segment(%d): %v", g, err)
		}
		want[g] = append([]int32(nil), seg.links...)
		cold.Release(seg)
	}
	cold.Close()

	hit0 := met.segmentsCacheHit.Value()
	warm := NewBlockCompiledRouting(r, opts)
	defer warm.Close()
	for g := 0; g < warm.NumSegments(); g++ {
		seg, err := warm.Segment(g)
		if err != nil {
			t.Fatalf("warm Segment(%d): %v", g, err)
		}
		if seg.Mapped() {
			t.Fatalf("heap fallback produced a mapped segment")
		}
		if !equalInt32(seg.links, want[g]) {
			t.Fatalf("heap-loaded segment %d differs from compile", g)
		}
		warm.Release(seg)
	}
	if met.segmentsCacheHit.Value()-hit0 != int64(warm.NumSegments()) {
		t.Fatalf("heap fallback missed the cache")
	}
}

// TestPlanBlocksCoversAllSources checks the segment plan partitions
// [0, n) exactly for a spread of segment sizes.
func TestPlanBlocksCoversAllSources(t *testing.T) {
	topo := blockTestTopo(t)
	r := NewRouting(topo, Disjoint{}, 4, 0)
	n := topo.NumProcessors()
	for _, segBytes := range []int64{1, 32 << 10, 1 << 20, 1 << 40} {
		t.Run(fmt.Sprintf("seg=%d", segBytes), func(t *testing.T) {
			b := NewBlockCompiledRouting(r, BlockOptions{SegmentBytes: segBytes})
			defer b.Close()
			covered := 0
			for g := 0; g < b.NumSegments(); g++ {
				lo, hi := b.SegmentSpan(g)
				if lo != covered {
					t.Fatalf("segment %d starts at %d, want %d", g, lo, covered)
				}
				if hi <= lo {
					t.Fatalf("segment %d empty: [%d,%d)", g, lo, hi)
				}
				covered = hi
			}
			if covered != n {
				t.Fatalf("segments cover [0,%d), want [0,%d)", covered, n)
			}
			for src := 0; src < n; src++ {
				g := b.SegmentFor(src)
				lo, hi := b.SegmentSpan(g)
				if src < lo || src >= hi {
					t.Fatalf("SegmentFor(%d)=%d spans [%d,%d)", src, g, lo, hi)
				}
			}
		})
	}
}

// TestBlockResidentPoolReuse checks that a released segment under the
// resident bound is reused (no recompile) and that Close rejects
// further fetches.
func TestBlockResidentPoolReuse(t *testing.T) {
	topo := blockTestTopo(t)
	r := NewRouting(topo, Disjoint{}, 4, 0)
	b := NewBlockCompiledRouting(r, BlockOptions{SegmentBytes: 128 << 10, ResidentBytes: 1 << 30})
	compiled0 := met.segmentsCompiled.Value()
	seg, err := b.Segment(0)
	if err != nil {
		t.Fatalf("Segment(0): %v", err)
	}
	b.Release(seg)
	again, err := b.Segment(0)
	if err != nil {
		t.Fatalf("Segment(0) again: %v", err)
	}
	if met.segmentsCompiled.Value()-compiled0 != 1 {
		t.Fatalf("pooled segment was recompiled")
	}
	b.Release(again)
	b.Close()
	if _, err := b.Segment(0); err == nil {
		t.Fatalf("Segment after Close succeeded")
	}
}
