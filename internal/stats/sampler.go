package stats

import (
	"math"
	"runtime"
	"sync"
)

// AdaptiveConfig controls the adaptive sampling protocol used by the
// paper for permutation experiments: draw an initial batch of samples,
// compute the confidence interval at the configured level, and keep
// doubling the sample count until the interval half-width falls below
// RelPrecision times the running mean (or MaxSamples is reached).
type AdaptiveConfig struct {
	// InitialSamples is the size of the first batch. Default 50.
	InitialSamples int
	// MaxSamples caps the total number of samples. Default 12800.
	MaxSamples int
	// Confidence is the confidence level for the interval. Default 0.99.
	Confidence float64
	// RelPrecision is the target half-width relative to the mean.
	// Default 0.01 (1% as in the paper's protocol).
	RelPrecision float64
	// Parallelism bounds the number of concurrent workers. Default
	// runtime.GOMAXPROCS(0).
	Parallelism int
}

// WithDefaults returns the config with every zero field replaced by
// its documented default — the exact config SampleAdaptive runs under.
// Exported for callers that size work by the effective sample cap
// (flow's compile policy amortizes a table build against it).
func (c AdaptiveConfig) WithDefaults() AdaptiveConfig { return c.withDefaults() }

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.InitialSamples <= 0 {
		c.InitialSamples = 50
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 12800
	}
	if c.MaxSamples < c.InitialSamples {
		c.MaxSamples = c.InitialSamples
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = 0.99
	}
	if c.RelPrecision <= 0 {
		c.RelPrecision = 0.01
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// AdaptiveResult reports the outcome of an adaptive sampling run.
type AdaptiveResult struct {
	Acc       Accumulator
	Converged bool    // interval reached the requested precision
	HalfWidth float64 // final confidence-interval half-width
}

// SampleAdaptive runs sample(i) for sample indices i = 0, 1, 2, ...
// following the adaptive protocol in cfg, fanning batches out over
// goroutines. sample must be safe for concurrent use and deterministic
// in its index (derive per-sample RNG state from i) so results are
// independent of scheduling.
func SampleAdaptive(cfg AdaptiveConfig, sample func(i int) float64) AdaptiveResult {
	cfg = cfg.withDefaults()
	var acc Accumulator
	next := 0
	batch := cfg.InitialSamples
	for {
		if next+batch > cfg.MaxSamples {
			batch = cfg.MaxSamples - next
		}
		if batch > 0 {
			vals := sampleParallel(next, batch, cfg.Parallelism, sample)
			acc.AddAll(vals)
			next += batch
		}
		rel := acc.RelativeCI(cfg.Confidence)
		if rel <= cfg.RelPrecision {
			return AdaptiveResult{Acc: acc, Converged: true, HalfWidth: acc.ConfidenceHalfWidth(cfg.Confidence)}
		}
		if next >= cfg.MaxSamples {
			hw := acc.ConfidenceHalfWidth(cfg.Confidence)
			if math.IsInf(hw, 1) {
				hw = 0
			}
			return AdaptiveResult{Acc: acc, Converged: false, HalfWidth: hw}
		}
		// Double the total sample count, as in the paper.
		batch = next
	}
}

// sampleParallel evaluates sample(start)..sample(start+n-1) using at
// most parallelism workers and returns the values in index order.
func sampleParallel(start, n, parallelism int, sample func(i int) float64) []float64 {
	vals := make([]float64, n)
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			vals[i] = sample(start + i)
		}
		return vals
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				vals[i-start] = sample(i)
			}
		}()
	}
	for i := start; i < start+n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return vals
}
