package experiments

import (
	"fmt"
	"sync"

	"xgftsim/internal/core"
	"xgftsim/internal/flow"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
)

// failureSchemes is the scheme × K grid of the failure sweep: the
// single-path baseline, each limited multi-path scheme at two budgets,
// and unlimited multi-path as the graceful-degradation reference.
var failureSchemes = []struct {
	sel core.Selector
	k   int
}{
	{core.DModK{}, 1},
	{core.Shift1{}, 2},
	{core.Shift1{}, 4},
	{core.Disjoint{}, 2},
	{core.Disjoint{}, 4},
	{core.RandomK{}, 2},
	{core.RandomK{}, 4},
	{core.UMulti{}, 1},
}

// faultSeeds derives the sweep's fault-placement seeds from the base
// seed; distinct offsets keep the streams decorrelated across seeds.
func faultSeeds(sc Scale, seed int64) []int64 {
	n := sc.FaultSeeds
	if n <= 0 {
		n = 3
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = seed + int64(i)*1000003
	}
	return out
}

func faultFractions(sc Scale) []float64 {
	if len(sc.FaultFractions) > 0 {
		return sc.FaultFractions
	}
	return []float64{0, 0.02, 0.05, 0.10}
}

// Failures runs the failure sweep on the paper's Figure 4 panel a and
// b topologies: average maximum link load of random permutations
// versus the fraction of failed cables, per scheme × K, with each
// routing repaired against every sampled fault placement. Confidence
// intervals are over the fault placements. Each panel's rows are the
// cells of one FailureSweep; the final column reports the fraction of
// SD pairs left with no surviving shortest path — traffic the repair
// reports as undeliverable rather than routing over dead links. Both
// panels' cells, disconn included, run in one cell pool.
func Failures(sc Scale, seed int64) *Table {
	fseeds := faultSeeds(sc, seed)
	tbl := &Table{
		Title:  "Failure sweep: average maximum link load vs failed cable fraction (permutation traffic, repaired routing)",
		XLabel: "panel frac",
		Footnote: fmt.Sprintf("99%% CI over %d fault placements per fraction; disconn = fraction of SD pairs with no surviving shortest path",
			len(fseeds)),
	}
	var jobs []func()
	for _, p := range []string{"a", "b"} {
		t, err := Fig4Panel(p)
		if err != nil {
			panic(err)
		}
		sweep, cell := failureCells(t, sc, seed)
		tbl.Columns = append(sweep.Columns, "disconn")
		for fi, frac := range faultFractions(sc) {
			row := make([]Cell, len(tbl.Columns))
			tbl.XValues = append(tbl.XValues, p+" "+sweep.XValues[fi])
			tbl.Cells = append(tbl.Cells, row)
			for col := range sweep.Columns {
				jobs = append(jobs, func() { row[col] = cell(fi, col) })
			}
			jobs = append(jobs, func() { row[len(row)-1] = disconnectedCell(t, frac, fseeds) })
		}
	}
	runCells(sc.Ctx, len(jobs), sc.Workers, func(i int) { jobs[i]() })
	return tbl
}

// FailureSweep is the single-topology failure sweep: one panel of
// Failures, and the failure phase of the benchmarks.
func FailureSweep(t *topology.Topology, sc Scale, seed int64) *Table {
	tbl, cell := failureCells(t, sc, seed)
	cols := len(tbl.Columns)
	runCells(sc.Ctx, len(tbl.Cells)*cols, sc.Workers, func(x int) {
		tbl.Cells[x/cols][x%cols] = cell(x/cols, x%cols)
	})
	return tbl
}

// failureCells lays out the failure sweep on t: the table, one row per
// fault fraction and one column per failureSchemes entry with its
// cells still zero, and the function that measures the cell at
// fraction fi, scheme col.
func failureCells(t *topology.Topology, sc Scale, seed int64) (*Table, func(fi, col int) Cell) {
	fracs, fseeds := faultFractions(sc), faultSeeds(sc, seed)
	tbl := &Table{
		Title:    fmt.Sprintf("Failure sweep: avg max link load vs failed cable fraction, %s", t),
		XLabel:   "frac",
		Footnote: fmt.Sprintf("99%% CI over %d fault placements per fraction", len(fseeds)),
	}
	for _, s := range failureSchemes {
		name := s.sel.Name()
		if s.sel.MultiPath() {
			name = fmt.Sprintf("%s K=%d", name, s.k)
		}
		tbl.Columns = append(tbl.Columns, name)
	}
	for _, frac := range fracs {
		tbl.XValues = append(tbl.XValues, fmt.Sprintf("%g%%", frac*100))
		tbl.Cells = append(tbl.Cells, make([]Cell, len(failureSchemes)))
	}
	// One failure base per scheme column: the healthy compile and its
	// delta repairer are fault-independent, so every fraction's cell
	// patches against the same base instead of recompiling. Built
	// lazily under sync.Once so the first cell of a column pays for it
	// whichever worker gets there first.
	bases := make([]*flow.FailureBase, len(failureSchemes))
	onces := make([]sync.Once, len(failureSchemes))
	return tbl, func(fi, col int) Cell {
		s := failureSchemes[col]
		x0 := flow.FailureExperiment{
			Topo:       t,
			Sel:        s.sel,
			K:          s.k,
			Fraction:   fracs[fi],
			FaultSeeds: fseeds,
			PermSeed:   seed,
			Sampling:   sc.Sampling,
		}
		onces[col].Do(func() { bases[col] = x0.NewBase() })
		x0.Base = bases[col]
		res := x0.Run()
		return Cell{Mean: res.Acc.Mean(), HalfWidth: res.HalfWidth, Samples: res.Acc.N()}
	}
}

// disconnectedCell measures the disconnected-pair fraction across the
// sweep's fault placements; pure topology arithmetic, no flow
// evaluation.
func disconnectedCell(t *topology.Topology, frac float64, fseeds []int64) Cell {
	if frac == 0 {
		return Cell{Samples: 1}
	}
	var acc stats.Accumulator
	for _, fs := range fseeds {
		f, err := topology.RandomCableFaultFraction(t, fs, frac)
		if err != nil {
			panic(err)
		}
		acc.Add(f.DisconnectedFraction())
	}
	c := Cell{Mean: acc.Mean(), Samples: acc.N()}
	if acc.N() > 1 {
		c.HalfWidth = acc.ConfidenceHalfWidth(0.99)
	}
	return c
}
