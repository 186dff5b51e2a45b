package experiments

import (
	"fmt"

	"xgftsim/internal/flow"
	"xgftsim/internal/topology"
)

// Fig4 reproduces one panel of the paper's Figure 4: the average
// maximum link load of random permutations versus the number of paths
// K, for d-mod-k, shift-1, disjoint and random. d-mod-k ignores K and
// appears as a flat reference series.
func Fig4(t *topology.Topology, sc Scale, permSeed int64) *Table {
	return Fig4Ks(t, KGrid(t), sc, permSeed)
}

// Fig4Ks is Fig4 over an explicit K grid (used by the benchmarks to
// bound runtime on the largest topologies). Each scheme is one cell: a
// flow.MultiKExperiment over the scheme's distinct K columns (schemeKs
// — {1} for d-mod-k, the grid clamped to MaxPaths for the multipath
// schemes) evaluates them all in one permutation stream over one
// routing, with the vector adaptive sampler freezing each column
// independently; rows then replicate the columns they share. The
// cells fan out across at most sc.Workers slots via runCells, and each
// cell parallelizes its samples (Sampling.Parallelism).
func Fig4Ks(t *topology.Topology, ks []int, sc Scale, permSeed int64) *Table {
	schemes := fig4Schemes()
	g := newKGrid(t, schemes, ks)
	cols := g.cells()
	runCells(sc.Ctx, len(schemes), sc.Workers, func(j int) {
		vec := flow.MultiKExperiment{
			Topo:     t,
			Sel:      schemes[j],
			Ks:       g.eff[j],
			PermSeed: permSeed,
			Sampling: sc.Sampling,
		}.Run()
		for r := range cols[j] {
			cols[j][r] = Cell{Mean: vec.Accs[r].Mean(), HalfWidth: vec.HalfWidths[r], Samples: vec.Accs[r].N()}
		}
	})
	return g.table(fmt.Sprintf("Figure 4: average maximum link load vs paths, %s (permutation traffic)", t),
		fig4Footnote(sc), cols)
}

// fig4Footnote states the sampling targets the cells were run to.
func fig4Footnote(sc Scale) string {
	cfg := sc.Sampling.WithDefaults()
	return fmt.Sprintf("adaptive sampling: %g%% confidence, %g%% precision target",
		cfg.Confidence*100, cfg.RelPrecision*100)
}

// Fig4Panel maps the paper's panel letters to their topologies.
func Fig4Panel(panel string) (*topology.Topology, error) {
	switch panel {
	case "a":
		return topology.FromPaper(topology.Paper16Port2Tree)
	case "b":
		return topology.FromPaper(topology.Paper16Port3Tree)
	case "c":
		return topology.FromPaper(topology.Paper24Port2Tree)
	case "d":
		return topology.FromPaper(topology.Paper24Port3Tree)
	}
	return nil, fmt.Errorf("experiments: Figure 4 has panels a-d, not %q", panel)
}
