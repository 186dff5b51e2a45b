// Package flow implements the paper's flow-level evaluation: given a
// routing and a traffic matrix it computes per-link loads, the maximum
// link load MLOAD(r, TM), the optimal load OLOAD(TM) (exactly, via the
// subtree-cut bound ML(TM) that Lemma 1 and Theorem 1 pin down), and
// performance ratios. It also provides the paper's permutation
// experiment: the average maximum link load over random permutations
// with adaptive 99%-confidence sampling.
package flow

import (
	"fmt"
	"math"
	"sync"

	"xgftsim/internal/core"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// pathSource is the common lazy surface of core.Routing and
// core.RepairedRouting: everything the evaluator needs to expand one
// pair's path set with caller-owned scratch.
type pathSource interface {
	Topology() *topology.Topology
	AppendPathsScratch(ps *core.PathScratch, buf []int, src, dst int) []int
}

// Evaluator computes link loads for one routing (healthy or repaired),
// reusing internal scratch buffers across calls. It is not safe for
// concurrent use; create one per goroutine (see Experiment).
type Evaluator struct {
	src     pathSource
	r       *core.Routing // nil when evaluating a repaired routing
	topo    *topology.Topology
	loads   []float64
	touched []int32 // links loaded by the most recent Loads call
	dense   bool    // bulk-clear mode: tm touches too many links to track
	lastMax float64 // max load of the most recent Loads call
	pathBuf []int
	linkBuf []topology.LinkID
	ps      *core.PathScratch
	opt     optScratch
}

// NewEvaluator creates an evaluator for routing r.
func NewEvaluator(r *core.Routing) *Evaluator {
	e := newEvaluator(r)
	e.r = r
	return e
}

// NewDegradedEvaluator creates an evaluator for a repaired routing on
// a degraded fabric. Traffic of disconnected pairs (empty repaired
// path sets) contributes no load; Loads silently skips it, matching
// the repair contract of reporting rather than routing such pairs.
func NewDegradedEvaluator(rr *core.RepairedRouting) *Evaluator {
	return newEvaluator(rr)
}

func newEvaluator(src pathSource) *Evaluator {
	t := src.Topology()
	return &Evaluator{
		src:   src,
		topo:  t,
		loads: make([]float64, t.NumLinks()),
		ps:    core.NewPathScratch(),
	}
}

// Routing returns the routing under evaluation, or nil for a degraded
// evaluator (whose source is a core.RepairedRouting).
func (e *Evaluator) Routing() *core.Routing { return e.r }

// Loads computes the load of every directed link under tm: the paper's
// Σ tm_{i,j}·f^k_{i,j} over paths crossing the link. The returned slice
// is owned by the evaluator and valid until the next call.
//
// Only the links the previous call loaded are re-zeroed (sparse
// matrices touch a small fraction of a large fabric's links) and the
// maximum is folded into accumulation, so neither a full O(numLinks)
// clear nor a rescan runs per sample. Flow amounts are strictly
// positive (traffic.Matrix enforces this), so a zero entry means
// "untouched this call" and the touched list needs no dedup structure.
// When a call touches a large fraction of the fabric the per-add
// bookkeeping costs more than it saves; the evaluator then switches
// permanently to bulk clearing with branch-free adds and a single
// max scan (identical values, identical add order).
func (e *Evaluator) Loads(tm *traffic.Matrix) []float64 {
	if tm.N != e.topo.NumProcessors() {
		panic(fmt.Sprintf("flow: traffic matrix over %d nodes, topology has %d", tm.N, e.topo.NumProcessors()))
	}
	met.loadsCalls.Inc()
	met.pairsEvaluated.Add(int64(len(tm.Flows())))
	max := 0.0
	if e.dense {
		for i := range e.loads {
			e.loads[i] = 0
		}
		for _, f := range tm.Flows() {
			e.pathBuf = e.src.AppendPathsScratch(e.ps, e.pathBuf[:0], f.Src, f.Dst)
			if len(e.pathBuf) == 0 {
				continue
			}
			share := f.Amount / float64(len(e.pathBuf))
			e.linkBuf = core.AppendPathSetLinks(e.topo, f.Src, f.Dst, e.pathBuf, e.linkBuf[:0])
			for _, link := range e.linkBuf {
				e.loads[link] += share
			}
		}
		for _, v := range e.loads {
			if v > max {
				max = v
			}
		}
		e.lastMax = max
		return e.loads
	}
	for _, l := range e.touched {
		e.loads[l] = 0
	}
	e.touched = e.touched[:0]
	for _, f := range tm.Flows() {
		e.pathBuf = e.src.AppendPathsScratch(e.ps, e.pathBuf[:0], f.Src, f.Dst)
		if len(e.pathBuf) == 0 {
			continue
		}
		share := f.Amount / float64(len(e.pathBuf))
		e.linkBuf = core.AppendPathSetLinks(e.topo, f.Src, f.Dst, e.pathBuf, e.linkBuf[:0])
		for _, link := range e.linkBuf {
			v := e.loads[link]
			if v == 0 {
				e.touched = append(e.touched, int32(link))
			}
			v += share
			e.loads[link] = v
			if v > max {
				max = v
			}
		}
	}
	if len(e.touched)*4 >= len(e.loads) {
		e.dense = true
		e.touched = e.touched[:0]
	}
	e.lastMax = max
	return e.loads
}

// MaxLoad computes MLOAD(r, TM): the largest link load under tm.
func (e *Evaluator) MaxLoad(tm *traffic.Matrix) float64 {
	e.Loads(tm)
	return e.lastMax
}

// TierLoads reports, for each tier (links between levels l and l+1)
// and direction, the maximum link load under the most recent Loads
// call. Index [l][0] is the up direction, [l][1] the down direction.
// Used by the ablation study of where each heuristic leaves contention.
func (e *Evaluator) TierLoads() [][2]float64 {
	return tierLoads(e.topo, e.loads)
}

// tierLoads folds a per-link load vector into per-tier directional
// maxima; shared by the lazy and compiled evaluators.
func tierLoads(t *topology.Topology, loads []float64) [][2]float64 {
	out := make([][2]float64, t.H())
	for link, l := range loads {
		if l == 0 {
			continue
		}
		id := topology.LinkID(link)
		tier := t.LinkTier(id)
		dir := 1
		if t.LinkIsUp(id) {
			dir = 0
		}
		if l > out[tier][dir] {
			out[tier][dir] = l
		}
	}
	return out
}

// OptimalLoad computes OLOAD(TM) reusing evaluator-resident scratch,
// so permutation studies that report PERF ratios allocate nothing per
// sample.
func (e *Evaluator) OptimalLoad(tm *traffic.Matrix) float64 {
	return e.opt.optimalLoad(e.topo, tm)
}

// PerformanceRatio computes PERF(r, TM) = MLOAD/OLOAD with the
// evaluator's scratch buffers.
func (e *Evaluator) PerformanceRatio(tm *traffic.Matrix) float64 {
	opt := e.OptimalLoad(tm)
	if opt == 0 {
		return 1
	}
	return e.MaxLoad(tm) / opt
}

// OptimalLoad computes OLOAD(TM) for a topology: by Lemma 1 every
// routing has maximum link load at least ML(TM), and by Theorem 1
// UMULTI attains it, so the subtree-cut bound is exact on XGFTs:
//
//	ML(TM) = max_{k, st_k} MT(TM, st_k) / TL(k)
//
// where MT is the larger of the traffic entering and leaving subtree
// st_k and TL(k) = Π_{i=1..k+1} w_i is the subtree's up-link count.
func OptimalLoad(t *topology.Topology, tm *traffic.Matrix) float64 {
	var s optScratch
	return s.optimalLoad(t, tm)
}

// optScratch holds the per-subtree in/out traffic accumulators of the
// subtree-cut bound, sized once for the largest level (k = 0, one
// subtree per processing node) and reused across levels and calls.
type optScratch struct {
	in, out []float64
}

func (s *optScratch) optimalLoad(t *topology.Topology, tm *traffic.Matrix) float64 {
	if tm.N != t.NumProcessors() {
		panic(fmt.Sprintf("flow: traffic matrix over %d nodes, topology has %d", tm.N, t.NumProcessors()))
	}
	if n := t.NumProcessors(); cap(s.in) < n {
		s.in = make([]float64, n)
		s.out = make([]float64, n)
	}
	best := 0.0
	// k = 0 (single processing nodes) up to h-1; the height-h "subtree"
	// is the whole network and has no crossing links.
	for k := 0; k < t.H(); k++ {
		nSub := t.MProd(k)
		in := s.in[:nSub]
		out := s.out[:nSub]
		for i := range in {
			in[i], out[i] = 0, 0
		}
		for _, f := range tm.Flows() {
			ss := t.SubtreeOfProcessor(f.Src, k)
			ds := t.SubtreeOfProcessor(f.Dst, k)
			if ss == ds {
				continue
			}
			out[ss] += f.Amount
			in[ds] += f.Amount
		}
		tl := float64(t.TL(k))
		for i := 0; i < nSub; i++ {
			mt := in[i]
			if out[i] > mt {
				mt = out[i]
			}
			if v := mt / tl; v > best {
				best = v
			}
		}
	}
	return best
}

// PerformanceRatio computes PERF(r, TM) = MLOAD(r, TM) / OLOAD(TM).
// A ratio of 1 means the routing is optimal for this demand. Demands
// with zero optimal load (empty matrices) return 1. Loops evaluating
// many demands should hold one Evaluator and call its
// PerformanceRatio method instead, which reuses scratch buffers.
func PerformanceRatio(r *core.Routing, tm *traffic.Matrix) float64 {
	return NewEvaluator(r).PerformanceRatio(tm)
}

// maxLoader is the common surface of the lazy and compiled evaluators.
type maxLoader interface {
	MaxLoad(tm *traffic.Matrix) float64
}

// evalPool amortizes evaluator allocation across concurrent samples.
type evalPool struct {
	pool sync.Pool
}

func newEvalPool(newFn func() maxLoader) *evalPool {
	return &evalPool{pool: sync.Pool{New: func() any { return newFn() }}}
}

func (p *evalPool) maxLoad(tm *traffic.Matrix) float64 {
	e := p.pool.Get().(maxLoader)
	v := e.MaxLoad(tm)
	p.pool.Put(e)
	return v
}

// Experiment is the paper's flow-level permutation study for a single
// (topology, scheme, K) cell: sample random permutations, measure the
// maximum link load of each, and average with the adaptive
// 99%-confidence protocol. For randomized schemes the per-permutation
// value is itself averaged over Seeds (the paper uses five).
type Experiment struct {
	Topo *topology.Topology
	Sel  core.Selector
	K    int
	// Seeds drive randomized selectors; nil defaults to a single zero
	// seed for deterministic schemes and five seeds for randomized
	// ones, matching the paper.
	Seeds []int64
	// PermSeed salts the permutation sample streams.
	PermSeed int64
	// Sampling configures the adaptive protocol; the zero value uses
	// the defaults in stats.AdaptiveConfig.
	Sampling stats.AdaptiveConfig
	// Compile selects whether Run precompiles each seed's routing into
	// a read-only core.CompiledRouting shared by all sampler
	// goroutines. The default CompileAuto compiles when the table fits
	// CompileBudget and the sample cap can amortize the one-shot build;
	// large fabrics whose pair count defeats either bound fall back to
	// the lazy per-sample path derivation transparently.
	Compile CompileMode
	// CompileBudget caps each compiled table's estimated size in
	// bytes; 0 means DefaultCompileBudget.
	CompileBudget int64
	// Block configures CompileBlock mode; ignored otherwise.
	Block BlockPolicy
}

// BlockPolicy configures the out-of-core block-compiled mode: segment
// granularity and residency for the table itself and a separate bound
// on evaluator load-row memory (which scales with batch size, not with
// the table).
type BlockPolicy struct {
	// SegmentBytes is the target compiled size of one source-block
	// segment; 0 means core.DefaultSegmentBytes.
	SegmentBytes int64
	// ResidentBytes caps the segment pool kept hot between walks; 0
	// means the experiment's CompileBudget (block mode's whole point is
	// that the budget bounds resident table memory, not table size).
	ResidentBytes int64
	// Cache, when non-nil, persists compiled segments on disk so later
	// runs map them back instead of recompiling.
	Cache *core.SegmentCache
	// EvalBytes bounds the per-batch evaluator row memory (8 bytes ×
	// links × batch × seeds); 0 means DefaultEvalBytes. Larger batches
	// amortize segment fetches over more samples per walk.
	EvalBytes int64
}

// DefaultEvalBytes bounds block-mode evaluator row memory when
// BlockPolicy.EvalBytes is zero.
const DefaultEvalBytes int64 = 256 << 20

// CompileMode selects Experiment's use of compiled routing tables.
type CompileMode int

const (
	// CompileAuto precompiles when both the memory budget and the
	// amortization heuristic allow it.
	CompileAuto CompileMode = iota
	// CompileNever always uses the lazy evaluator.
	CompileNever
	// CompileAlways precompiles whenever the table fits the budget,
	// regardless of amortization.
	CompileAlways
	// CompileBlock streams the table as block-compiled segments
	// (core.BlockCompiledRouting): samples are evaluated in
	// segment-ordered batches and peak table memory stays near one
	// segment per walker no matter how large the fabric. Never chosen
	// automatically — out-of-core evaluation is an explicit decision.
	CompileBlock
)

// DefaultCompileBudget bounds a compiled table's size when
// Experiment.CompileBudget is zero.
const DefaultCompileBudget int64 = 1 << 30

// compiled builds the compiled table for r under the experiment's
// policy, or returns nil to use the lazy path.
func (x Experiment) compiled(r *core.Routing) *core.CompiledRouting {
	if x.Compile == CompileNever {
		return nil
	}
	budget := x.CompileBudget
	if budget <= 0 {
		budget = DefaultCompileBudget
	}
	if x.Compile == CompileAuto {
		// Compiling derives all N² pair blocks once; each lazy sample
		// derives N. Compile only when the sample cap exceeds N, so the
		// build is amortized even if sampling stops at the cap.
		ms := x.Sampling.MaxSamples
		if ms <= 0 {
			ms = 12800 // stats.AdaptiveConfig's default cap
		}
		if x.Topo.NumProcessors() > ms {
			met.compileFallbackAmortize.Inc()
			return nil
		}
	}
	c, err := core.CompileRouting(r, budget)
	if err != nil {
		met.compileFallbackBudget.Inc()
		return nil // over budget: lazy fallback
	}
	return c
}

// Run executes the experiment and returns the sampling result; the
// accumulator's mean is the paper's "Average of Maximum Load".
func (x Experiment) Run() stats.AdaptiveResult {
	seeds := x.Seeds
	if len(seeds) == 0 {
		if core.ClosedForm(x.Sel) {
			seeds = []int64{0}
		} else {
			seeds = []int64{101, 202, 303, 404, 505}
		}
	}
	if x.Compile == CompileBlock {
		return x.runBlock(seeds)
	}
	pools := make([]*evalPool, len(seeds))
	for i, s := range seeds {
		r := core.NewRouting(x.Topo, x.Sel, x.K, s)
		if c := x.compiled(r); c != nil {
			pools[i] = newEvalPool(func() maxLoader { return NewCompiledEvaluator(c) })
		} else {
			pools[i] = newEvalPool(func() maxLoader { return NewEvaluator(r) })
		}
	}
	n := x.Topo.NumProcessors()
	sample := func(i int) float64 {
		rng := stats.Stream(x.PermSeed, int64(i))
		tm := traffic.FromPermutation(traffic.RandomPermutation(n, rng))
		sum := 0.0
		for _, p := range pools {
			sum += p.maxLoad(tm)
		}
		return sum / float64(len(pools))
	}
	return stats.SampleAdaptive(x.Sampling, sample)
}

// runBlock executes the experiment out-of-core: one block-compiled
// table per seed, samples evaluated in segment-ordered batches so each
// segment is fetched once per batch and peak table memory stays near
// one segment. The adaptive protocol below mirrors
// stats.SampleAdaptive batch for batch — same batch boundaries, same
// accumulator feed order, same convergence checks — so for matching
// seeds the result is bit-identical to a lazy or compiled run; only
// the evaluation order inside a sample differs, and permutation
// matrices are source-sorted so even that order matches.
func (x Experiment) runBlock(seeds []int64) stats.AdaptiveResult {
	budget := x.CompileBudget
	if budget <= 0 {
		budget = DefaultCompileBudget
	}
	resident := x.Block.ResidentBytes
	if resident <= 0 {
		resident = budget
	}
	opts := core.BlockOptions{
		SegmentBytes:  x.Block.SegmentBytes,
		ResidentBytes: resident,
		Cache:         x.Block.Cache,
	}
	k := x.K
	if mp := x.Topo.MaxPaths(); k <= 0 || k > mp {
		k = mp
	}
	evals := make([]*BlockEvaluator, len(seeds))
	for i, s := range seeds {
		b := core.NewBlockCompiledRouting(core.NewRouting(x.Topo, x.Sel, x.K, s), opts)
		defer b.Close()
		evals[i] = NewBlockEvaluator(b, []int{k})
	}

	n := x.Topo.NumProcessors()
	eb := x.Block.EvalBytes
	if eb <= 0 {
		eb = DefaultEvalBytes
	}
	chunk := int(eb / (8 * int64(x.Topo.NumLinks()) * int64(len(seeds))))
	if chunk < 1 {
		chunk = 1
	}
	tms := make([]*traffic.Matrix, 0, chunk)
	outs := make([][]float64, 0, chunk)
	sampleChunk := func(start int, vals []float64) {
		tms = tms[:0]
		for i := range vals {
			rng := stats.Stream(x.PermSeed, int64(start+i))
			tms = append(tms, traffic.FromPermutation(traffic.RandomPermutation(n, rng)))
		}
		for len(outs) < len(vals) {
			outs = append(outs, make([]float64, 1))
		}
		for i := range vals {
			vals[i] = 0
		}
		for _, e := range evals {
			if err := e.MaxLoadsBatch(tms, outs[:len(vals)]); err != nil {
				panic(fmt.Sprintf("flow: block evaluation: %v", err))
			}
			for i := range vals {
				vals[i] += outs[i][0]
			}
		}
		// Match Run's per-sample value: sum of per-seed maxima divided
		// by the seed count (same operation, so same rounding).
		for i := range vals {
			vals[i] /= float64(len(seeds))
		}
	}

	cfg := x.Sampling.WithDefaults()
	var acc stats.Accumulator
	next := 0
	batch := cfg.InitialSamples
	vals := make([]float64, 0, cfg.MaxSamples)
	for {
		if next+batch > cfg.MaxSamples {
			batch = cfg.MaxSamples - next
		}
		if batch > 0 {
			vals = vals[:0]
			vals = append(vals, make([]float64, batch)...)
			for off := 0; off < batch; off += chunk {
				c := chunk
				if off+c > batch {
					c = batch - off
				}
				sampleChunk(next+off, vals[off:off+c])
			}
			acc.AddAll(vals)
			next += batch
		}
		rel := acc.RelativeCI(cfg.Confidence)
		if rel <= cfg.RelPrecision {
			return stats.AdaptiveResult{Acc: acc, Converged: true, HalfWidth: acc.ConfidenceHalfWidth(cfg.Confidence)}
		}
		if next >= cfg.MaxSamples {
			hw := acc.ConfidenceHalfWidth(cfg.Confidence)
			if math.IsInf(hw, 1) {
				hw = 0
			}
			return stats.AdaptiveResult{Acc: acc, Converged: false, HalfWidth: hw}
		}
		batch = next
	}
}
