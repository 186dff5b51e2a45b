package core

import (
	"fmt"
	"sync"
	"time"

	"xgftsim/internal/topology"
)

// DefaultSegmentBytes is the target footprint of one compiled routing
// segment when BlockOptions.SegmentBytes is zero. 64 MiB keeps a
// segment comfortably cache- and mmap-friendly while holding enough
// sources that the per-segment bookkeeping (offsets, scheduling) is
// noise against the compile work.
const DefaultSegmentBytes int64 = 64 << 20

// DefaultTableBudget is the resident-memory bound applied to routing
// tables when no explicit budget is configured. It matches
// flow.DefaultCompileBudget (1 GiB): a full CompiledRouting beyond it
// fails to build, which is exactly the regime block compilation exists
// for.
const DefaultTableBudget int64 = 1 << 30

// BlockOptions configures a BlockCompiledRouting.
type BlockOptions struct {
	// SegmentBytes is the target estimated footprint per segment; the
	// block source count is derived from it. 0 means
	// DefaultSegmentBytes. A segment always holds at least one source,
	// so a tiny value degenerates to one-source segments, never an
	// error.
	SegmentBytes int64
	// ResidentBytes bounds the heap bytes of released segments kept
	// resident for reuse. 0 means DefaultTableBudget. Memory-mapped
	// segments do not count against it (the page cache owns them).
	ResidentBytes int64
	// Cache, when non-nil, spills compiled segments to disk and maps
	// them back on later fetches — including across processes, which is
	// what makes repeated sweeps over the same fabric skip compilation
	// entirely.
	Cache *SegmentCache
}

// BlockCompiledRouting is a CompiledRouting that never materializes
// all N² rows at once: the pair matrix is split into source-block CSR
// segments, each compiled on demand (or mapped back from the segment
// cache), handed to the evaluator, and released once the evaluator
// finishes the block. Peak memory is therefore ≈ one segment per
// concurrent walker plus the resident pool, not the full table — the
// difference between ~130 GiB and ~64 MiB on a 34k-endpoint fabric.
//
// The per-pair layout inside a segment is identical to
// CompiledRouting's (same int32 packing, same path-major link order,
// same selector validation), so loads computed from segments are
// bit-identical to both the full table and the lazy evaluator.
//
// Segment and Release are safe for concurrent use; the segments
// themselves are immutable after compile, so any number of goroutines
// may hold disjoint (or even the same) segments. Only healthy routings
// are supported: repaired path sets are fault-dependent, so their
// out-of-core story is the delta overlay, not source blocks.
type BlockCompiledRouting struct {
	r    *Routing
	topo *topology.Topology
	n    int

	blockSrcs   int
	numSegments int
	opts        BlockOptions
	key         string

	mu        sync.Mutex
	pool      map[int]*RoutingSegment // released, heap- or mmap-backed
	poolBytes int64
	liveBytes int64 // pooled + checked-out segment bytes
	closed    bool
}

// RoutingSegment is one compiled source block: the CSR rows of every
// pair (src, dst) with src in [SrcLo(), SrcHi()). It is immutable; the
// accessor slices alias the segment and must not be modified. A
// segment is owned by whoever fetched it until returned via
// BlockCompiledRouting.Release.
type RoutingSegment struct {
	index        int
	srcLo, srcHi int
	n            int

	pathOff []int64
	pathIdx []int32
	linkOff []int64
	links   []int32

	mapped []byte // non-nil when backed by a cache mmap
	bytes  int64
}

// PlanBlocks reports how NewBlockCompiledRouting would segment r at
// the given target segment size: sources per segment, segment count,
// and the estimated bytes of one segment. Useful for predicting the
// block regime (cmd/xgftinfo) without building anything.
func PlanBlocks(r *Routing, segmentBytes int64) (blockSrcs, numSegments int, segBytes int64) {
	if segmentBytes <= 0 {
		segmentBytes = DefaultSegmentBytes
	}
	n := r.Topology().NumProcessors()
	per := perSourceBytes(r)
	blockSrcs = int(segmentBytes / per)
	if blockSrcs < 1 {
		blockSrcs = 1
	}
	if blockSrcs > n {
		blockSrcs = n
	}
	numSegments = (n + blockSrcs - 1) / blockSrcs
	return blockSrcs, numSegments, int64(blockSrcs)*per + 16 // +16: offset tails
}

// perSourceBytes is CompiledBytes for a single source row block: every
// source sees the same per-NCA-level pair counts on an XGFT, so the
// estimate is uniform across sources.
func perSourceBytes(r *Routing) int64 {
	t := r.Topology()
	var paths, links int64
	for k := 1; k <= t.H(); k++ {
		pairs := int64(t.ProcessorsPerSubtree(k) - t.ProcessorsPerSubtree(k-1))
		np := int64(r.pathCount(k))
		paths += pairs * np
		links += pairs * np * int64(2*k)
	}
	return 16*int64(t.NumProcessors()) + 4*paths + 4*links
}

// NewBlockCompiledRouting prepares block-compiled access to r. No
// segment is compiled yet — construction is O(1) — so this never fails
// on size: tables far beyond any memory budget are exactly its use
// case. Selector misbehavior (a custom scheme emitting a varying count
// per NCA level) surfaces as an error from Segment, the same contract
// CompileRouting enforces eagerly.
func NewBlockCompiledRouting(r *Routing, opts BlockOptions) *BlockCompiledRouting {
	if r == nil {
		panic("core: NewBlockCompiledRouting requires a routing")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.ResidentBytes <= 0 {
		opts.ResidentBytes = DefaultTableBudget
	}
	t := r.Topology()
	b := &BlockCompiledRouting{
		r:    r,
		topo: t,
		n:    t.NumProcessors(),
		opts: opts,
		pool: make(map[int]*RoutingSegment),
	}
	b.blockSrcs, b.numSegments, _ = PlanBlocks(r, opts.SegmentBytes)
	// The cache key pins everything a segment's contents depend on:
	// topology, scheme, path limit, RNG seed, and the source blocking
	// (segment index only means something at a fixed block size). The
	// leading version tag invalidates all files on layout changes.
	b.key = fmt.Sprintf("xgftseg-v1|%s|%s|K=%d|seed=%d|block=%d",
		t, r.Selector().Name(), r.K(), r.Seed(), b.blockSrcs)
	return b
}

// Routing returns the routing the segments are compiled from.
func (b *BlockCompiledRouting) Routing() *Routing { return b.r }

// Topology returns the underlying topology.
func (b *BlockCompiledRouting) Topology() *topology.Topology { return b.topo }

// NumSegments returns the number of source-block segments.
func (b *BlockCompiledRouting) NumSegments() int { return b.numSegments }

// BlockSources returns the number of sources per segment (the last
// segment may hold fewer).
func (b *BlockCompiledRouting) BlockSources() int { return b.blockSrcs }

// SegmentSpan returns segment g's source range [lo, hi).
func (b *BlockCompiledRouting) SegmentSpan(g int) (lo, hi int) {
	if g < 0 || g >= b.numSegments {
		panic(fmt.Sprintf("core: segment %d out of range [0,%d)", g, b.numSegments))
	}
	lo = g * b.blockSrcs
	hi = lo + b.blockSrcs
	if hi > b.n {
		hi = b.n
	}
	return lo, hi
}

// SegmentFor returns the index of the segment holding source src.
func (b *BlockCompiledRouting) SegmentFor(src int) int { return src / b.blockSrcs }

// TotalBytesEstimate is the closed-form footprint the full table would
// need — CompiledBytes of the underlying routing.
func (b *BlockCompiledRouting) TotalBytesEstimate() int64 { return CompiledBytes(b.r) }

// Segment fetches segment g: from the resident pool if a released copy
// is still held, else from the on-disk cache (memory-mapped when the
// platform supports it), else by compiling the block. Ownership
// transfers to the caller until Release.
func (b *BlockCompiledRouting) Segment(g int) (*RoutingSegment, error) {
	lo, hi := b.SegmentSpan(g)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, fmt.Errorf("core: BlockCompiledRouting is closed")
	}
	if s, ok := b.pool[g]; ok {
		delete(b.pool, g)
		b.poolBytes -= s.bytes
		b.mu.Unlock()
		return s, nil
	}
	b.mu.Unlock()
	s, err := b.materialize(g, lo, hi)
	if err != nil {
		return nil, err
	}
	b.noteLive(s.bytes)
	return s, nil
}

// materialize produces segment g by cache load or compile.
func (b *BlockCompiledRouting) materialize(g, lo, hi int) (*RoutingSegment, error) {
	if b.opts.Cache != nil {
		if s, ok := b.opts.Cache.load(b.key, g, lo, hi, b.n); ok {
			met.segmentsCacheHit.Inc()
			return s, nil
		}
		met.segmentsCacheMiss.Inc()
	}
	s, err := b.compileSegment(g, lo, hi)
	if err != nil {
		return nil, err
	}
	if b.opts.Cache != nil {
		if err := b.opts.Cache.store(b.key, g, s); err == nil {
			met.segmentsCacheWrite.Inc()
		}
		// A failed store (full disk, unwritable dir) only loses the
		// cache benefit; the compiled segment is still good.
	}
	return s, nil
}

// Release returns a segment fetched with Segment. Heap-backed segments
// are kept resident while the pool fits ResidentBytes (so the next
// fetch is free) and dropped to the GC otherwise; mmap-backed segments
// are pooled the same way and unmapped on eviction.
func (b *BlockCompiledRouting) Release(s *RoutingSegment) {
	if s == nil {
		return
	}
	b.mu.Lock()
	if !b.closed && b.pool[s.index] == nil && b.poolBytes+s.bytes <= b.opts.ResidentBytes {
		b.pool[s.index] = s
		b.poolBytes += s.bytes
		b.mu.Unlock()
		return
	}
	b.liveBytes -= s.bytes
	b.mu.Unlock()
	s.drop()
}

// Close evicts the resident pool (unmapping any cached mmaps) and
// rejects further Segment calls. Segments still checked out remain
// valid; releasing them after Close drops them.
func (b *BlockCompiledRouting) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	pool := b.pool
	b.pool = map[int]*RoutingSegment{}
	for _, s := range pool {
		b.liveBytes -= s.bytes
	}
	b.poolBytes = 0
	b.mu.Unlock()
	for _, s := range pool {
		s.drop()
	}
}

// noteLive tracks checked-out plus pooled segment bytes and feeds the
// high-water gauge, the number EXPERIMENTS.md's peak-memory appendix
// reads.
func (b *BlockCompiledRouting) noteLive(delta int64) {
	b.mu.Lock()
	b.liveBytes += delta
	live := b.liveBytes
	b.mu.Unlock()
	met.segmentLivePeak.SetMax(live)
}

// ResidentBytes reports the bytes currently held by the released-
// segment pool.
func (b *BlockCompiledRouting) ResidentBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.poolBytes
}

// compileSegment materializes the block [lo, hi) with the same
// offsets, packing and validation contract as CompileRouting, but
// through the interval-structured fast fill (see blockfill.go): the
// per-pair NCALevel/Select/AppendPathSetLinks loop is replaced by a
// constant-NCA-interval walk with closed-form index generation for the
// built-in deterministic selectors and separable link expansion. One
// goroutine per segment: block-mode parallelism comes from walkers
// compiling disjoint segments, not from splitting one segment.
func (b *BlockCompiledRouting) compileSegment(g, lo, hi int) (*RoutingSegment, error) {
	start := time.Now()
	rows := (hi - lo) * b.n
	f := newSegFiller(b.r)
	perPaths, perLinks := f.perSourceCounts()
	s := &RoutingSegment{
		index:   g,
		srcLo:   lo,
		srcHi:   hi,
		n:       b.n,
		pathOff: make([]int64, rows+1),
		linkOff: make([]int64, rows+1),
		pathIdx: make([]int32, int64(hi-lo)*perPaths),
		links:   make([]int32, int64(hi-lo)*perLinks),
	}
	if err := f.fill(s, lo, hi); err != nil {
		return nil, err
	}
	s.bytes = s.Bytes()
	met.segmentsCompiled.Inc()
	met.segmentCompileNanos.Add(time.Since(start).Nanoseconds())
	return s, nil
}

// Index returns the segment's position in the block sequence.
func (s *RoutingSegment) Index() int { return s.index }

// SrcLo returns the first source the segment covers.
func (s *RoutingSegment) SrcLo() int { return s.srcLo }

// SrcHi returns one past the last source the segment covers.
func (s *RoutingSegment) SrcHi() int { return s.srcHi }

// Bytes returns the segment's array footprint.
func (s *RoutingSegment) Bytes() int64 {
	return 8*int64(len(s.pathOff)+len(s.linkOff)) + 4*int64(len(s.pathIdx)+len(s.links))
}

// Mapped reports whether the segment is backed by a cache mmap rather
// than heap arrays.
func (s *RoutingSegment) Mapped() bool { return s.mapped != nil }

// row indexes the segment-local CSR row of (src, dst), panicking when
// src is outside the segment's span — always a walker bug, never a
// data condition.
func (s *RoutingSegment) row(src, dst int) int {
	if src < s.srcLo || src >= s.srcHi {
		panic(fmt.Sprintf("core: source %d outside segment span [%d,%d)", src, s.srcLo, s.srcHi))
	}
	return (src-s.srcLo)*s.n + dst
}

// PairLinks is CompiledRouting.PairLinks over the segment's rows.
func (s *RoutingSegment) PairLinks(src, dst int) (links []int32, numPaths int) {
	p := s.row(src, dst)
	return s.links[s.linkOff[p]:s.linkOff[p+1]], int(s.pathOff[p+1] - s.pathOff[p])
}

// PairPathLinks is CompiledRouting.PairPathLinks over the segment's
// rows: the same concatenation viewed as numPaths prefix-nested
// fixed-stride path segments.
func (s *RoutingSegment) PairPathLinks(src, dst int) (links []int32, numPaths, stride int) {
	links, numPaths = s.PairLinks(src, dst)
	if numPaths == 0 {
		return links, 0, 0
	}
	return links, numPaths, len(links) / numPaths
}

// PathIndices returns the pair's canonical path indices.
func (s *RoutingSegment) PathIndices(src, dst int) []int32 {
	p := s.row(src, dst)
	return s.pathIdx[s.pathOff[p]:s.pathOff[p+1]]
}

// drop releases the segment's backing store: heap segments go to the
// GC, mapped segments are unmapped (after which the slices must not be
// touched — drop is only called once no owner remains).
func (s *RoutingSegment) drop() {
	if s.mapped != nil {
		m := s.mapped
		s.mapped = nil
		s.pathOff, s.linkOff, s.pathIdx, s.links = nil, nil, nil, nil
		munmapFile(m)
	}
}
