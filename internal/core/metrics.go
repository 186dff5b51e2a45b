package core

import "xgftsim/internal/obs"

// Shared routing-table metrics: how much table compilation work a run
// performed. Counted once per compile/patch (never on per-pair paths),
// so the instrumentation cost is a handful of atomic adds per table.
var met = struct {
	compiles      *obs.Counter
	compiledPairs *obs.Counter
	deltaPatches  *obs.Counter
	patchedPairs  *obs.Counter
	// Block-compiled routing: segments built from scratch (with their
	// cumulative compile wall-clock, so a warm-cache run shows ≈ 0
	// nanos), segment-cache traffic, and the high-water mark of bytes
	// held by live segments — the out-of-core mode's actual peak table
	// memory, which stays near one segment per walker regardless of N².
	segmentsCompiled    *obs.Counter
	segmentCompileNanos *obs.Counter
	segmentsCacheHit    *obs.Counter
	segmentsCacheMiss   *obs.Counter
	segmentsCacheWrite  *obs.Counter
	segmentLivePeak     *obs.Gauge
}{
	compiles:            obs.Default().Counter("core.compiles"),
	compiledPairs:       obs.Default().Counter("core.compiled_pairs"),
	deltaPatches:        obs.Default().Counter("core.delta_patches"),
	patchedPairs:        obs.Default().Counter("core.delta_patched_pairs"),
	segmentsCompiled:    obs.Default().Counter("core.segments_compiled"),
	segmentCompileNanos: obs.Default().Counter("core.segment_compile_nanos"),
	segmentsCacheHit:    obs.Default().Counter("core.segments_cache_hit"),
	segmentsCacheMiss:   obs.Default().Counter("core.segments_cache_miss"),
	segmentsCacheWrite:  obs.Default().Counter("core.segments_cache_write"),
	segmentLivePeak:     obs.Default().Gauge("core.segment_live_bytes_peak"),
}
