// Package experiments regenerates every table and figure of the
// paper's evaluation section, plus the ablations called out in
// DESIGN.md. Each experiment returns a structured result that can be
// rendered as an aligned text table or CSV; cmd/xgftpaper drives them
// from the command line and bench_test.go exposes one benchmark per
// artifact.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"xgftsim/internal/core"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
)

// Scale selects the fidelity/runtime trade-off of a reproduction run.
type Scale struct {
	// Name labels the scale in reports.
	Name string
	// Sampling configures flow-level adaptive sampling.
	Sampling stats.AdaptiveConfig
	// FlitWarmup and FlitMeasure are the flit-level windows (cycles).
	FlitWarmup, FlitMeasure int64
	// FlitSeeds is how many workload seeds flit metrics average over.
	FlitSeeds int
	// Loads is the offered-load grid for sweeps.
	Loads []float64
	// FaultSeeds is how many random fault placements the failure sweep
	// averages over (its confidence intervals are across these).
	FaultSeeds int
	// FaultFractions is the failed-cable-fraction grid for the failure
	// sweep.
	FaultFractions []float64
	// Workers bounds how many grid cells an experiment measures
	// concurrently (each cell may itself parallelize its samples);
	// 0 means GOMAXPROCS. Results are deterministic regardless.
	Workers int
	// Ctx, when non-nil, cancels a sweep between cells: on
	// cancellation the runner stops scheduling new cells and the
	// experiment aborts with ErrInterrupted (wrapped in a *CellPanic).
	// Nil means run to completion.
	Ctx context.Context
}

// QuickScale finishes each experiment in seconds; for smoke runs and
// benchmarks.
func QuickScale() Scale {
	return Scale{
		Name:           "quick",
		Sampling:       stats.AdaptiveConfig{InitialSamples: 40, MaxSamples: 160, RelPrecision: 0.03},
		FlitWarmup:     2000,
		FlitMeasure:    6000,
		FlitSeeds:      1,
		Loads:          []float64{0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		FaultSeeds:     3,
		FaultFractions: []float64{0, 0.02, 0.05, 0.10},
	}
}

// FullScale follows the paper's protocol (99% confidence, 1% relative
// precision, five seeds for randomized schemes).
func FullScale() Scale {
	loads := make([]float64, 0, 19)
	for l := 0.05; l < 1.0001; l += 0.05 {
		loads = append(loads, l)
	}
	return Scale{
		Name:           "full",
		Sampling:       stats.AdaptiveConfig{InitialSamples: 100, MaxSamples: 12800, RelPrecision: 0.01},
		FlitWarmup:     10000,
		FlitMeasure:    30000,
		FlitSeeds:      3,
		Loads:          loads,
		FaultSeeds:     10,
		FaultFractions: []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10},
	}
}

// PaperScale balances the paper's protocol against single-machine
// runtimes: tight confidence targets with bounded sample caps and
// moderate flit windows. The reported half-widths always state the
// achieved precision.
func PaperScale() Scale {
	loads := make([]float64, 0, 12)
	for l := 0.1; l < 1.0001; l += 0.1 {
		loads = append(loads, l)
	}
	return Scale{
		Name:           "paper",
		Sampling:       stats.AdaptiveConfig{InitialSamples: 200, MaxSamples: 1600, RelPrecision: 0.015},
		FlitWarmup:     4000,
		FlitMeasure:    12000,
		FlitSeeds:      2,
		Loads:          loads,
		FaultSeeds:     5,
		FaultFractions: []float64{0, 0.01, 0.02, 0.05, 0.08, 0.10},
	}
}

// scales lists every named scale, fastest first, with a one-line
// description for command-line help.
var scales = []struct {
	name, doc string
	make      func() Scale
}{
	{"quick", "seconds per experiment: 3% precision, at most 160 samples", QuickScale},
	{"paper", "up to minutes per experiment: 1.5% precision, at most 1600 samples", PaperScale},
	{"full", "the paper's protocol: 1% precision, at most 12800 samples", FullScale},
}

// ScaleNames lists the names ScaleByName accepts.
func ScaleNames() []string {
	names := make([]string, len(scales))
	for i, s := range scales {
		names[i] = s.name
	}
	return names
}

// ScaleHelp describes every named scale in one line, for a -scale
// flag's usage text.
func ScaleHelp() string {
	parts := make([]string, len(scales))
	for i, s := range scales {
		parts[i] = fmt.Sprintf("%s (%s)", s.name, s.doc)
	}
	return strings.Join(parts, ", ")
}

// ScaleByName resolves a name from ScaleNames; the empty name is quick.
func ScaleByName(name string) (Scale, error) {
	name = strings.ToLower(name)
	if name == "" {
		name = "quick"
	}
	for _, s := range scales {
		if s.name == name {
			return s.make(), nil
		}
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want %s)", name, strings.Join(ScaleNames(), ", "))
}

// fig4Schemes are the four series in every Figure 4 plot.
func fig4Schemes() []core.Selector {
	return []core.Selector{core.DModK{}, core.Shift1{}, core.Disjoint{}, core.RandomK{}}
}

// KGrid returns the Figure 4 x-axis for a topology: every K up to 16,
// then powers-of-two-ish steps up to the maximum path count.
func KGrid(t *topology.Topology) []int {
	max := t.MaxPaths()
	var ks []int
	for k := 1; k <= max && k <= 16; k++ {
		ks = append(ks, k)
	}
	for k := 24; k < max; k += k / 2 {
		ks = append(ks, k)
	}
	if len(ks) == 0 || ks[len(ks)-1] != max {
		ks = append(ks, max)
	}
	sort.Ints(ks)
	return ks
}

// effectiveKs clamps a requested K grid to a topology's maximum path
// count and dedupes it: every K >= MaxPaths yields the same UMULTI
// path sets, so such cells are measured once and replicated across the
// requested rows. eff is the ascending unique effective grid; rowOf[i]
// indexes eff for requested ks[i].
func effectiveKs(t *topology.Topology, ks []int) (eff []int, rowOf []int) {
	max := t.MaxPaths()
	clamp := func(k int) int {
		if k > max {
			return max
		}
		if k < 1 {
			return 1
		}
		return k
	}
	seen := make(map[int]bool, len(ks))
	for _, k := range ks {
		if c := clamp(k); !seen[c] {
			seen[c] = true
			eff = append(eff, c)
		}
	}
	sort.Ints(eff)
	pos := make(map[int]int, len(eff))
	for i, k := range eff {
		pos[k] = i
	}
	rowOf = make([]int, len(ks))
	for i, k := range ks {
		rowOf[i] = pos[clamp(k)]
	}
	return eff, rowOf
}

// schemeKs is the rule for which (scheme, K) cells of a scheme × K
// table are distinct. The paper's heuristics are K-indexed families
// running from d-mod-k at K = 1 to UMULTI at K >= MaxPaths (Theorem
// 1): a single-path selector ignores K, so its grid is the one column
// {1} and every requested row maps to it; any other selector gets the
// requested grid clamped and deduped by effectiveKs. eff is the
// ascending grid to measure; rowOf[i] indexes eff for requested ks[i].
func schemeKs(t *topology.Topology, sel core.Selector, ks []int) (eff, rowOf []int) {
	if !sel.MultiPath() {
		return []int{1}, make([]int, len(ks))
	}
	return effectiveKs(t, ks)
}

// kGrid applies schemeKs to every column of a scheme × K table.
type kGrid struct {
	schemes    []core.Selector // the columns
	ks         []int           // the requested rows
	eff, rowOf [][]int         // per scheme, from schemeKs
}

func newKGrid(t *topology.Topology, schemes []core.Selector, ks []int) kGrid {
	g := kGrid{schemes: schemes, ks: ks, eff: make([][]int, len(schemes)), rowOf: make([][]int, len(schemes))}
	for j, sel := range schemes {
		g.eff[j], g.rowOf[j] = schemeKs(t, sel, ks)
	}
	return g
}

// cells allocates one cell per distinct (scheme, K): cells[j][r] is
// scheme j at K = eff[j][r].
func (g kGrid) cells() [][]Cell {
	cols := make([][]Cell, len(g.eff))
	for j, eff := range g.eff {
		cols[j] = make([]Cell, len(eff))
	}
	return cols
}

// table lays measured cells out with one column per scheme and one
// row per requested K: row i reads cols[j][rowOf[j][i]], so rows that
// share a distinct cell repeat it under their own K label.
func (g kGrid) table(title, footnote string, cols [][]Cell) *Table {
	tbl := &Table{Title: title, XLabel: "K", Columns: make([]string, len(g.schemes)), Footnote: footnote}
	for j, s := range g.schemes {
		tbl.Columns[j] = s.Name()
	}
	for i, k := range g.ks {
		row := make([]Cell, len(g.schemes))
		for j := range g.schemes {
			row[j] = cols[j][g.rowOf[j][i]]
		}
		tbl.XValues = append(tbl.XValues, fmt.Sprintf("%d", k))
		tbl.Cells = append(tbl.Cells, row)
	}
	return tbl
}

// Cell is one measured value with its confidence half-width and
// sample count.
type Cell struct {
	Mean      float64
	HalfWidth float64
	Samples   int
}

// Table is a generic labelled grid of cells used by the experiment
// results: one row per x-axis value, one column per series.
type Table struct {
	Title    string
	XLabel   string
	XValues  []string
	Columns  []string
	Cells    [][]Cell // [row][col]
	Footnote string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	fmt.Fprintf(w, "%-12s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(w, " %14s", c)
	}
	fmt.Fprintln(w)
	for i, x := range t.XValues {
		fmt.Fprintf(w, "%-12s", x)
		for j := range t.Columns {
			c := t.Cells[i][j]
			fmt.Fprintf(w, " %14s", fmt.Sprintf("%.4g±%.2g", c.Mean, c.HalfWidth))
		}
		fmt.Fprintln(w)
	}
	if t.Footnote != "" {
		fmt.Fprintf(w, "  %s\n", t.Footnote)
	}
}

// WriteCSV writes the table as CSV (mean and half-width columns per
// series).
func (t *Table) WriteCSV(w io.Writer) error {
	cols := []string{csvEscape(t.XLabel)}
	for _, c := range t.Columns {
		cols = append(cols, csvEscape(c), csvEscape(c+"_ci"))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i, x := range t.XValues {
		row := []string{csvEscape(x)}
		for j := range t.Columns {
			c := t.Cells[i][j]
			row = append(row, fmt.Sprintf("%g", c.Mean), fmt.Sprintf("%g", c.HalfWidth))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
