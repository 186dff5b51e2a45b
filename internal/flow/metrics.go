package flow

import "xgftsim/internal/obs"

// Shared flow-evaluation metrics: how many SD pairs the evaluators
// walked (one atomic add per Loads call, never per pair) and which
// repair strategy each failure-sweep fault placement chose.
var met = struct {
	loadsCalls     *obs.Counter
	pairsEvaluated *obs.Counter
	repairPatched  *obs.Counter
	repairLazy     *obs.Counter
	// Multi-K evaluation: walks of one permutation serving a whole K
	// grid, and how many K columns those walks served in total (the
	// per-cell equivalent would have been one loads_calls each).
	multikWalks   *obs.Counter
	multikColumns *obs.Counter
	// Block-compiled evaluation: segment-ordered walks over an
	// out-of-core table, the segments those walks actually fetched
	// (skipped segments are never compiled) and the rows table-free
	// walks derived instead (closed-form selectors fetch no segment), so
	// a manifest shows which of the two a run did. The fallback counters make
	// the compile policy's compiled→lazy decisions visible in manifests:
	// budget means the table (or a failure sweep's delta index) did not
	// fit, amortized means the fabric exceeds the sample cap so
	// compilation would not pay for itself.
	blockWalks              *obs.Counter
	blockSegments           *obs.Counter
	blockRowsDerived        *obs.Counter
	compileFallbackBudget   *obs.Counter
	compileFallbackAmortize *obs.Counter
}{
	loadsCalls:              obs.Default().Counter("flow.loads_calls"),
	pairsEvaluated:          obs.Default().Counter("flow.pairs_evaluated"),
	repairPatched:           obs.Default().Counter("flow.repair_patched"),
	repairLazy:              obs.Default().Counter("flow.repair_lazy"),
	multikWalks:             obs.Default().Counter("flow.multik_walks"),
	multikColumns:           obs.Default().Counter("flow.multik_columns"),
	blockWalks:              obs.Default().Counter("flow.block_walks"),
	blockSegments:           obs.Default().Counter("flow.block_segments_walked"),
	blockRowsDerived:        obs.Default().Counter("flow.block_rows_derived"),
	compileFallbackBudget:   obs.Default().Counter("flow.compile_fallback_budget"),
	compileFallbackAmortize: obs.Default().Counter("flow.compile_fallback_amortized"),
}
