package experiments

import (
	"fmt"

	"xgftsim/internal/core"
	"xgftsim/internal/flit"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// table1Topology is the paper's flit-level evaluation tree, the
// 8-port 3-tree XGFT(3;4,4,8;1,4,4).
func table1Topology() *topology.Topology {
	t, err := topology.FromPaper(topology.Paper8Port3Tree)
	if err != nil {
		panic(err)
	}
	return t
}

// flitWorkload draws the fixed random source->destination assignment
// used by the flit-level experiments (see DESIGN.md §5 for why the
// paper's "uniform random traffic" is read this way).
func flitWorkload(t *topology.Topology, seed int64) traffic.Pattern {
	rng := stats.Stream(seed, 31)
	return traffic.NewPermutationPattern(
		fmt.Sprintf("uniform-assignment(seed=%d)", seed),
		traffic.RandomDerangementish(t.NumProcessors(), rng))
}

// maxThroughput measures the saturation throughput of one
// (scheme, K) cell, averaged over the scale's workload seeds.
func maxThroughput(t *topology.Topology, sel core.Selector, k int, sc Scale) Cell {
	var acc stats.Accumulator
	for s := 0; s < sc.FlitSeeds; s++ {
		base := flit.Config{
			Routing:       core.NewRouting(t, sel, k, int64(s)),
			Pattern:       flitWorkload(t, int64(s)),
			Seed:          int64(s),
			WarmupCycles:  sc.FlitWarmup,
			MeasureCycles: sc.FlitMeasure,
		}
		results, err := flit.Sweep(flit.SweepConfig{Base: base, Loads: sc.Loads})
		if err != nil {
			panic(err)
		}
		acc.Add(flit.MaxThroughput(results))
	}
	hw := 0.0
	if acc.N() > 1 {
		hw = acc.ConfidenceHalfWidth(0.95)
	}
	return Cell{Mean: acc.Mean(), HalfWidth: hw, Samples: acc.N()}
}

// Table1 reproduces the paper's Table 1: maximum aggregate throughput
// (fraction of capacity) on XGFT(3;4,4,8;1,4,4) for K in {1,2,4,8}
// under each scheme. Every distinct (scheme, K) cell of schemeKs is
// one job — d-mod-k's single K = 1 cell fills all four rows — and the
// jobs run under the bounded parallel scheduler (sc.Workers slots)
// with deterministic placement.
func Table1(sc Scale) *Table {
	t := table1Topology()
	schemes := []core.Selector{core.DModK{}, core.Shift1{}, core.RandomK{}, core.Disjoint{}}
	g := newKGrid(t, schemes, []int{1, 2, 4, 8})
	type job struct{ col, r int }
	var jobs []job
	for j, eff := range g.eff {
		for r := range eff {
			jobs = append(jobs, job{j, r})
		}
	}
	cols := g.cells()
	runCells(sc.Ctx, len(jobs), sc.Workers, func(x int) {
		jb := jobs[x]
		cols[jb.col][jb.r] = maxThroughput(t, schemes[jb.col], g.eff[jb.col][jb.r], sc)
	})
	return g.table(fmt.Sprintf("Table 1: maximum throughput (fraction of capacity), %s, uniform assignment", t),
		fmt.Sprintf("%d workload seed(s); packet=8 flits, message=4 packets, buffers=4 packets", sc.FlitSeeds), cols)
}

// fig5Series lists the paper's Figure 5 curves: scheme and K.
type fig5Series struct {
	sel core.Selector
	k   int
}

func fig5SeriesList() []fig5Series {
	return []fig5Series{
		{core.DModK{}, 1},
		{core.Disjoint{}, 2},
		{core.Disjoint{}, 8},
		{core.Shift1{}, 2},
		{core.Shift1{}, 8},
		{core.RandomK{}, 1},
		{core.RandomK{}, 2},
		{core.RandomK{}, 8},
	}
}

// Fig5 reproduces the paper's Figure 5: average message delay (cycles)
// versus offered load for each routing series on XGFT(3;4,4,8;1,4,4).
// Rows are offered loads; beyond-saturation cells grow without bound,
// as virtual cut-through's tree saturation predicts.
func Fig5(sc Scale) *Table {
	t := table1Topology()
	series := fig5SeriesList()
	tbl := &Table{
		Title:   fmt.Sprintf("Figure 5: average message delay (cycles) vs offered load, %s", t),
		XLabel:  "load",
		Columns: make([]string, len(series)),
	}
	for j, s := range series {
		if s.sel.MultiPath() {
			tbl.Columns[j] = fmt.Sprintf("%s(%d)", s.sel.Name(), s.k)
		} else {
			tbl.Columns[j] = s.sel.Name()
		}
	}
	type key struct{ j, row int }
	cells := make(map[key]*stats.Accumulator)
	for s := 0; s < sc.FlitSeeds; s++ {
		pattern := flitWorkload(t, int64(s))
		for j, sr := range series {
			base := flit.Config{
				Routing:       core.NewRouting(t, sr.sel, sr.k, int64(s)),
				Pattern:       pattern,
				Seed:          int64(s),
				WarmupCycles:  sc.FlitWarmup,
				MeasureCycles: sc.FlitMeasure,
			}
			results, err := flit.Sweep(flit.SweepConfig{Base: base, Loads: sc.Loads})
			if err != nil {
				panic(err)
			}
			for row, r := range results {
				k := key{j, row}
				if cells[k] == nil {
					cells[k] = &stats.Accumulator{}
				}
				cells[k].Add(r.AvgDelay)
			}
		}
	}
	for row, l := range sc.Loads {
		tbl.XValues = append(tbl.XValues, fmt.Sprintf("%.2f", l))
		r := make([]Cell, len(series))
		for j := range series {
			acc := cells[key{j, row}]
			hw := 0.0
			if acc.N() > 1 {
				hw = acc.ConfidenceHalfWidth(0.95)
			}
			r[j] = Cell{Mean: acc.Mean(), HalfWidth: hw, Samples: acc.N()}
		}
		tbl.Cells = append(tbl.Cells, r)
	}
	tbl.Footnote = "delay of messages completed in the measurement window; saturated points understate the true (unbounded) delay"
	return tbl
}
