package experiments

import (
	"fmt"

	"xgftsim/internal/adversary"
	"xgftsim/internal/core"
	"xgftsim/internal/flit"
	"xgftsim/internal/flow"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// AdaptiveComparison extends the paper's related-work discussion
// (Gomez et al., "Deterministic versus Adaptive Routing in Fat-trees"):
// maximum flit-level throughput of minimal adaptive routing against
// the oblivious schemes at increasing K, on the Table 1 topology and
// workload.
func AdaptiveComparison(sc Scale) *Table {
	t := table1Topology()
	tbl := &Table{
		Title:   fmt.Sprintf("Extension: oblivious limited multi-path vs minimal adaptive routing, %s", t),
		XLabel:  "routing",
		Columns: []string{"max throughput"},
	}
	type cfg struct {
		name     string
		sel      core.Selector
		k        int
		adaptive bool
	}
	rows := []cfg{
		{"d-mod-k", core.DModK{}, 1, false},
		{"disjoint(2)", core.Disjoint{}, 2, false},
		{"disjoint(8)", core.Disjoint{}, 8, false},
		{"umulti(16)", core.UMulti{}, 0, false},
		{"adaptive", core.DModK{}, 1, true},
	}
	for _, c := range rows {
		var acc Cell
		var sum float64
		for s := 0; s < sc.FlitSeeds; s++ {
			base := flit.Config{
				Routing:       core.NewRouting(t, c.sel, c.k, int64(s)),
				Pattern:       flitWorkload(t, int64(s)),
				Seed:          int64(s),
				WarmupCycles:  sc.FlitWarmup,
				MeasureCycles: sc.FlitMeasure,
				Adaptive:      c.adaptive,
			}
			results, err := flit.Sweep(flit.SweepConfig{Base: base, Loads: sc.Loads})
			if err != nil {
				panic(err)
			}
			sum += flit.MaxThroughput(results)
		}
		acc = Cell{Mean: sum / float64(sc.FlitSeeds), Samples: sc.FlitSeeds}
		tbl.XValues = append(tbl.XValues, c.name)
		tbl.Cells = append(tbl.Cells, []Cell{acc})
	}
	tbl.Footnote = "adaptive = least-occupied upward output per hop; oblivious rows use the paper's heuristics"
	return tbl
}

// AllToAllShift evaluates the workload behind Zahavi et al.'s
// optimized fat-tree routing (the paper's reference for d-mod-k's
// strength): the worst per-phase maximum link load over all n-1 shift
// permutations. d-mod-k is provably optimal on shifts; the study
// verifies the heuristics preserve that as K grows. Each scheme walks
// every shift once through a flow.MultiKEvaluator serving all of its
// distinct K columns (schemeKs), and rows replicate the columns they
// share.
func AllToAllShift(t *topology.Topology, ks []int) *Table {
	schemes := fig4Schemes()
	g := newKGrid(t, schemes, ks)
	n := t.NumProcessors()
	cols := g.cells()
	for j, sel := range schemes {
		eff := g.eff[j]
		ev := flow.NewMultiKEvaluator(core.NewRouting(t, sel, eff[len(eff)-1], 1), eff)
		out := make([]float64, len(eff))
		for s := 1; s < n; s++ {
			ev.MaxLoads(traffic.FromPermutation(traffic.ShiftPermutation(n, s)), nil, out)
			for r, load := range out {
				cols[j][r].Mean = max(cols[j][r].Mean, load)
			}
		}
		for r := range eff {
			cols[j][r].Samples = n - 1
		}
	}
	return g.table(fmt.Sprintf("Extension: worst max link load over all shift permutations, %s", t),
		"d-mod-k achieves the optimal load 1 on every shift; multi-path heuristics must not regress it", cols)
}

// WorstCaseSearch runs the adversarial permutation search of
// internal/adversary once per distinct (scheme, K) cell of schemeKs on
// a moderate tree, lower-bounding the oblivious performance ratios that
// Figure 4's averages do not expose. The search is seeded, so a cell
// shared by several rows (d-mod-k's, or K >= MaxPaths) is the value
// each row would have found on its own.
func WorstCaseSearch(t *topology.Topology, ks []int, searchCfg adversary.Config) *Table {
	schemes := fig4Schemes()
	g := newKGrid(t, schemes, ks)
	cols := g.cells()
	for j, sel := range schemes {
		for r, k := range g.eff[j] {
			res := adversary.WorstPermutation(core.NewRouting(t, sel, k, 1), searchCfg)
			cols[j][r] = Cell{Mean: res.Ratio, Samples: res.Evaluations}
		}
	}
	return g.table(fmt.Sprintf("Extension: worst-case permutation performance ratio (annealing search), %s", t),
		"lower bounds on the oblivious ratio; UMULTI's exact value is 1 (Theorem 1)", cols)
}
