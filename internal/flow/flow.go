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
	"sync"

	"xgftsim/internal/core"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// pathSource is the common lazy surface of core.Routing and
// core.RepairedRouting: expanding one pair's path set with
// caller-owned scratch.
type pathSource interface {
	AppendPathsScratch(ps *core.PathScratch, buf []int, src, dst int) []int
}

// Evaluator computes link loads for one routing, healthy or repaired,
// read from one of two sources: lazily, deriving each flow's path set
// per call, or from a shared core.CompiledRouting, scanning each
// flow's precompiled link list with no path selection, no RNG
// derivation and no per-sample allocation. Both sources feed the same
// adds in the same order, so their loads agree bit for bit. A compiled
// table is read-only and may back any number of evaluators; the
// evaluator itself reuses internal scratch across calls and is not
// safe for concurrent use — create one per goroutine (see Experiment).
type Evaluator struct {
	src     pathSource            // lazy source; nil when c is set
	c       *core.CompiledRouting // compiled source; nil when lazy
	r       *core.Routing         // healthy routing; nil on a degraded fabric
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

// NewEvaluator creates a lazy evaluator for routing r.
func NewEvaluator(r *core.Routing) *Evaluator {
	e := newEvaluator(r.Topology(), r)
	e.r = r
	return e
}

// NewDegradedEvaluator creates a lazy evaluator for a repaired routing
// on a degraded fabric. Traffic of disconnected pairs (empty repaired
// path sets) contributes no load; Loads silently skips it, matching
// the repair contract of reporting rather than routing such pairs.
func NewDegradedEvaluator(rr *core.RepairedRouting) *Evaluator {
	return newEvaluator(rr.Topology(), rr)
}

// NewCompiledEvaluator creates an evaluator over the shared table c,
// healthy or repaired (a repaired table skips disconnected pairs like
// NewDegradedEvaluator).
func NewCompiledEvaluator(c *core.CompiledRouting) *Evaluator {
	e := newEvaluator(c.Topology(), nil)
	e.c = c
	if c.Repaired() == nil {
		e.r = c.Routing()
	}
	return e
}

func newEvaluator(t *topology.Topology, src pathSource) *Evaluator {
	e := &Evaluator{src: src, topo: t, loads: make([]float64, t.NumLinks())}
	if src != nil {
		e.ps = core.NewPathScratch()
	}
	return e
}

// Routing returns the healthy routing under evaluation, or nil on a
// degraded fabric (a core.RepairedRouting source or repaired table).
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
	if e.dense {
		clear(e.loads)
	} else {
		for _, l := range e.touched {
			e.loads[l] = 0
		}
		e.touched = e.touched[:0]
	}
	max := 0.0
	for _, f := range tm.Flows() {
		if e.c != nil {
			if links, np := e.c.PairLinks(f.Src, f.Dst); np > 0 {
				max = addShare(e, links, f.Amount/float64(np), max)
			}
			continue
		}
		e.pathBuf = e.src.AppendPathsScratch(e.ps, e.pathBuf[:0], f.Src, f.Dst)
		if len(e.pathBuf) == 0 {
			continue
		}
		e.linkBuf = core.AppendPathSetLinks(e.topo, f.Src, f.Dst, e.pathBuf, e.linkBuf[:0])
		max = addShare(e, e.linkBuf, f.Amount/float64(len(e.pathBuf)), max)
	}
	if e.dense {
		for _, v := range e.loads {
			if v > max {
				max = v
			}
		}
	} else if len(e.touched)*4 >= len(e.loads) {
		e.dense = true
		e.touched = e.touched[:0]
	}
	e.lastMax = max
	return e.loads
}

// addShare adds share to every link of one flow's path-set link list
// and returns the running maximum: in sparse mode it records first
// touches and folds the maximum per add, in dense mode it only adds
// (Loads scans for the maximum once at the end).
func addShare[L ~int | ~int32](e *Evaluator, links []L, share, max float64) float64 {
	loads := e.loads
	if e.dense {
		for _, l := range links {
			loads[l] += share
		}
		return max
	}
	for _, l := range links {
		v := loads[l]
		if v == 0 {
			e.touched = append(e.touched, int32(l))
		}
		v += share
		loads[l] = v
		if v > max {
			max = v
		}
	}
	return max
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
	t := e.topo
	out := make([][2]float64, t.H())
	for link, l := range e.loads {
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

// evalPool amortizes evaluator allocation across concurrent samples.
type evalPool struct {
	pool sync.Pool
}

func newEvalPool(newFn func() *Evaluator) *evalPool {
	return &evalPool{pool: sync.Pool{New: func() any { return newFn() }}}
}

func (p *evalPool) maxLoad(tm *traffic.Matrix) float64 {
	e := p.pool.Get().(*Evaluator)
	v := e.MaxLoad(tm)
	p.pool.Put(e)
	return v
}

// permSampler is the adaptive protocol's per-sample function shared by
// Experiment and FailureExperiment: sample i is the i-th random
// permutation of the permSeed stream over n nodes, valued at its
// maximum link load averaged over the pools' routings.
func permSampler(n int, permSeed int64, pools []*evalPool) func(int) float64 {
	return func(i int) float64 {
		rng := stats.Stream(permSeed, int64(i))
		tm := traffic.FromPermutation(traffic.RandomPermutation(n, rng))
		sum := 0.0
		for _, p := range pools {
			sum += p.maxLoad(tm)
		}
		return sum / float64(len(pools))
	}
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
	// CompileBudget caps each compiled table's estimated size in
	// bytes; 0 means DefaultCompileBudget. Run precompiles each seed's
	// routing into a read-only core.CompiledRouting shared by all
	// sampler goroutines when the table fits it and the sample cap
	// amortizes the build (see compileTable); otherwise it evaluates
	// lazily, with identical results. A budget of 1 forces the lazy path.
	CompileBudget int64
}

// DefaultCompileBudget bounds a compiled table's size when an
// experiment's CompileBudget is zero.
const DefaultCompileBudget int64 = 1 << 30

// compileTable is the compile policy of every flow experiment: it
// compiles r when the fabric has no more nodes than sampling's sample
// cap and the table fits budget (0 means DefaultCompileBudget), and
// returns nil otherwise, counting why. Compiling derives all N² pair
// blocks once and each lazy sample derives N, so the node bound keeps
// the build amortized even if sampling stops at the cap.
func compileTable(r *core.Routing, sampling stats.AdaptiveConfig, budget int64) *core.CompiledRouting {
	if r.Topology().NumProcessors() > sampling.WithDefaults().MaxSamples {
		met.compileFallbackAmortize.Inc()
		return nil
	}
	if budget <= 0 {
		budget = DefaultCompileBudget
	}
	c, err := core.CompileRouting(r, budget)
	if err != nil {
		met.compileFallbackBudget.Inc()
		return nil
	}
	return c
}

// selectorSeeds applies the paper's selector-seed default when seeds
// is empty: a single zero seed for deterministic (closed-form) schemes,
// five seeds for randomized ones.
func selectorSeeds(sel core.Selector, seeds []int64) []int64 {
	if len(seeds) > 0 {
		return seeds
	}
	if core.ClosedForm(sel) {
		return []int64{0}
	}
	return []int64{101, 202, 303, 404, 505}
}

// Run executes the experiment and returns the sampling result; the
// accumulator's mean is the paper's "Average of Maximum Load".
func (x Experiment) Run() stats.AdaptiveResult {
	seeds := selectorSeeds(x.Sel, x.Seeds)
	pools := make([]*evalPool, len(seeds))
	for i, s := range seeds {
		r := core.NewRouting(x.Topo, x.Sel, x.K, s)
		if c := compileTable(r, x.Sampling, x.CompileBudget); c != nil {
			pools[i] = newEvalPool(func() *Evaluator { return NewCompiledEvaluator(c) })
		} else {
			pools[i] = newEvalPool(func() *Evaluator { return NewEvaluator(r) })
		}
	}
	return stats.SampleAdaptive(x.Sampling, permSampler(x.Topo.NumProcessors(), x.PermSeed, pools))
}
