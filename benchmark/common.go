package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"xgftsim/internal/core"
	"xgftsim/internal/experiments"
	"xgftsim/internal/obs"
	"xgftsim/internal/topology"
)

// xgft is a topology's parameters, kept so probes can time the build.
type xgft struct {
	h    int
	m, w []int
}

func (x xgft) build() *topology.Topology { return topology.MustNew(x.h, x.m, x.w) }

// counter reads a counter or gauge out of a registry delta.
func counter(d obs.Snapshot, name string) float64 {
	if v, ok := d[name].(int64); ok {
		return float64(v)
	}
	return 0
}

// histSum reads a histogram's summed observations out of a delta.
func histSum(d obs.Snapshot, name string) float64 {
	if h, ok := d[name].(obs.HistogramSnapshot); ok {
		return h.Sum
	}
	return 0
}

// memDelta is the allocator and collector work between two readings.
type memDelta struct {
	allocGB   float64
	gcCycles  float64
	gcPauseMs float64
	mallocs   float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(m0 runtime.MemStats) memDelta {
	m1 := readMem()
	return memDelta{
		allocGB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e9,
		gcCycles:  float64(m1.NumGC - m0.NumGC),
		gcPauseMs: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		mallocs:   float64(m1.Mallocs - m0.Mallocs),
	}
}

func (c *runCtx) setRuntime(d memDelta) {
	c.set("runtime.alloc_gb", d.allocGB)
	c.set("runtime.gc_cycles", d.gcCycles)
	c.set("runtime.gc_pause_ms", d.gcPauseMs)
}

// probeReps is how many times a one-shot layer probe is repeated; the
// metric is the median.
const probeReps = 5

// medianSeconds times fn probeReps times and returns the median.
func medianSeconds(fn func()) float64 {
	times := make([]float64, probeReps)
	for i := range times {
		t0 := time.Now()
		fn()
		times[i] = time.Since(t0).Seconds()
	}
	return median(times)
}

// parallelCells runs fn(0..n-1) on at most workers goroutines and
// re-raises the first panic in the caller, like experiments.runCells.
func parallelCells(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first any
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() {
						if p := recover(); p != nil {
							mu.Lock()
							if first == nil {
								first = p
							}
							mu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if first != nil {
		panic(first)
	}
}

// tablesEqual compares two experiment tables bit for bit: labels, and
// every cell's mean, half-width and sample count.
func tablesEqual(a, b *experiments.Table) (bool, string) {
	if len(a.XValues) != len(b.XValues) || len(a.Columns) != len(b.Columns) {
		return false, fmt.Sprintf("shape %dx%d vs %dx%d", len(a.XValues), len(a.Columns), len(b.XValues), len(b.Columns))
	}
	for i := range a.XValues {
		if a.XValues[i] != b.XValues[i] {
			return false, fmt.Sprintf("row %d labelled %q vs %q", i, a.XValues[i], b.XValues[i])
		}
	}
	for j := range a.Columns {
		if a.Columns[j] != b.Columns[j] {
			return false, fmt.Sprintf("column %d labelled %q vs %q", j, a.Columns[j], b.Columns[j])
		}
	}
	for i := range a.Cells {
		for j := range a.Cells[i] {
			x, y := a.Cells[i][j], b.Cells[i][j]
			if math.Float64bits(x.Mean) != math.Float64bits(y.Mean) ||
				math.Float64bits(x.HalfWidth) != math.Float64bits(y.HalfWidth) || x.Samples != y.Samples {
				return false, fmt.Sprintf("cell [%s][%s]: %v±%v n=%d vs %v±%v n=%d",
					a.XValues[i], a.Columns[j], x.Mean, x.HalfWidth, x.Samples, y.Mean, y.HalfWidth, y.Samples)
			}
		}
	}
	return true, fmt.Sprintf("%dx%d cells identical", len(a.XValues), len(a.Columns))
}

// selectorSeeds mirrors the experiments' seed defaulting: one zero
// seed for deterministic schemes, the paper's five for randomized ones.
func selectorSeeds(sel core.Selector) []int64 {
	switch sel.(type) {
	case core.DModK, core.SModK, core.Shift1, core.Disjoint, core.UMulti:
		return []int64{0}
	}
	return []int64{101, 202, 303, 404, 505}
}
