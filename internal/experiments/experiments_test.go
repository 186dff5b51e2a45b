package experiments

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"xgftsim/internal/core"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
)

// tinyScale keeps experiment tests fast.
func tinyScale() Scale {
	return Scale{
		Name:        "tiny",
		Sampling:    stats.AdaptiveConfig{InitialSamples: 20, MaxSamples: 20, RelPrecision: 0.5},
		FlitWarmup:  500,
		FlitMeasure: 1500,
		FlitSeeds:   1,
		Loads:       []float64{0.5, 1.0},
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "full", "", "QUICK"} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
	full := FullScale()
	if full.Sampling.RelPrecision != 0.01 || full.Sampling.Confidence != 0 {
		// Confidence 0 defaults to 0.99 inside stats.
		t.Logf("full scale: %+v", full.Sampling)
	}
	if len(full.Loads) < 15 {
		t.Errorf("full scale has %d load points", len(full.Loads))
	}
}

func TestKGrid(t *testing.T) {
	small := topology.MustNew(2, []int{4, 8}, []int{1, 4})
	ks := KGrid(small)
	if ks[0] != 1 || ks[len(ks)-1] != small.MaxPaths() {
		t.Fatalf("KGrid(small) = %v", ks)
	}
	big := topology.MustNew(3, []int{12, 12, 24}, []int{1, 12, 12})
	ks = KGrid(big)
	if ks[len(ks)-1] != 144 {
		t.Fatalf("KGrid(big) must end at 144, got %v", ks)
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatalf("KGrid not increasing: %v", ks)
		}
	}
	if len(ks) > 25 {
		t.Fatalf("KGrid too dense for the Ranger tree: %d points", len(ks))
	}
}

func TestEffectiveKs(t *testing.T) {
	tp := topology.MustNew(2, []int{4, 8}, []int{1, 4}) // MaxPaths = 4
	eff, rowOf := effectiveKs(tp, []int{1, 2, 4, 8, 16})
	if want := []int{1, 2, 4}; len(eff) != len(want) || eff[0] != 1 || eff[1] != 2 || eff[2] != 4 {
		t.Fatalf("eff = %v, want %v", eff, want)
	}
	if want := []int{0, 1, 2, 2, 2}; len(rowOf) != len(want) {
		t.Fatalf("rowOf = %v", rowOf)
	} else {
		for i := range want {
			if rowOf[i] != want[i] {
				t.Fatalf("rowOf = %v, want %v", rowOf, want)
			}
		}
	}
}

func TestSchemeKs(t *testing.T) {
	tp := topology.MustNew(2, []int{4, 8}, []int{1, 4}) // MaxPaths = 4
	ks := []int{16, 1, 2, 4, 8}
	for _, c := range []struct {
		sel        core.Selector
		eff, rowOf []int
	}{
		// Single-path: one K = 1 column serves every requested row.
		{core.DModK{}, []int{1}, []int{0, 0, 0, 0, 0}},
		// Multipath: clamped at MaxPaths, deduped, ascending.
		{core.Shift1{}, []int{1, 2, 4}, []int{2, 0, 1, 2, 2}},
		{core.Disjoint{}, []int{1, 2, 4}, []int{2, 0, 1, 2, 2}},
		{core.RandomK{}, []int{1, 2, 4}, []int{2, 0, 1, 2, 2}},
	} {
		eff, rowOf := schemeKs(tp, c.sel, ks)
		if !slices.Equal(eff, c.eff) || !slices.Equal(rowOf, c.rowOf) {
			t.Errorf("%s: schemeKs = %v, %v; want %v, %v", c.sel.Name(), eff, rowOf, c.eff, c.rowOf)
		}
	}
}

// TestSchemeKRowsShareCells checks the scheme × K grid rule on every
// builder that applies it: requested K labels survive, d-mod-k's cell
// is the same on every row, and every row with K >= MaxPaths (UMULTI)
// repeats the MaxPaths row.
func TestSchemeKRowsShareCells(t *testing.T) {
	for _, g := range goldenTables() {
		tbl, maxK := g.tbl, g.topo.MaxPaths()
		name := g.name + " " + g.topo.String()
		if len(tbl.XValues) != len(g.ks) {
			t.Fatalf("%s: rows %v, want the requested %v", name, tbl.XValues, g.ks)
		}
		for i, k := range g.ks {
			if tbl.XValues[i] != strconv.Itoa(k) {
				t.Fatalf("%s: rows %v, want the requested %v", name, tbl.XValues, g.ks)
			}
		}
		maxRow := slices.Index(g.ks, maxK)
		for j, col := range tbl.Columns {
			for i, k := range g.ks {
				x := tbl.XValues[i]
				if col == "d-mod-k" && tbl.Cells[i][j] != tbl.Cells[0][j] {
					t.Errorf("%s: d-mod-k at K=%s %+v differs from K=1 %+v", name, x, tbl.Cells[i][j], tbl.Cells[0][j])
				}
				if k >= maxK && tbl.Cells[i][j] != tbl.Cells[maxRow][j] {
					t.Errorf("%s: %s at K=%s %+v differs from the K=%d (UMULTI) cell %+v",
						name, col, x, tbl.Cells[i][j], maxK, tbl.Cells[maxRow][j])
				}
			}
		}
	}
}

func TestFig4FootnotePrecision(t *testing.T) {
	if got, want := fig4Footnote(PaperScale()), "99% confidence, 1.5% precision target"; !strings.Contains(got, want) {
		t.Errorf("paper-scale footnote %q does not state %q", got, want)
	}
}

func TestFig4Panels(t *testing.T) {
	want := map[string]string{
		"a": "XGFT(2; 8,16; 1,8)",
		"b": "XGFT(3; 8,8,16; 1,8,8)",
		"c": "XGFT(2; 12,24; 1,12)",
		"d": "XGFT(3; 12,12,24; 1,12,12)",
	}
	for panel, s := range want {
		tp, err := Fig4Panel(panel)
		if err != nil {
			t.Fatal(err)
		}
		if tp.String() != s {
			t.Errorf("panel %s = %s, want %s", panel, tp, s)
		}
	}
	if _, err := Fig4Panel("z"); err == nil {
		t.Error("panel z accepted")
	}
}

// TestFig4Shape runs a small Figure 4 and checks the paper's
// qualitative findings.
func TestFig4Shape(t *testing.T) {
	tp := topology.MustNew(2, []int{4, 8}, []int{1, 4})
	tbl := Fig4Ks(tp, []int{1, 2, 4}, tinyScale(), 1)
	if len(tbl.Cells) != 3 || len(tbl.Columns) != 4 {
		t.Fatalf("table shape %dx%d", len(tbl.Cells), len(tbl.Columns))
	}
	col := func(name string) int {
		for j, c := range tbl.Columns {
			if c == name {
				return j
			}
		}
		t.Fatalf("column %s missing", name)
		return -1
	}
	dmodk, disjoint := col("d-mod-k"), col("disjoint")
	// d-mod-k flat, disjoint strictly improving and below d-mod-k at K>=2.
	if tbl.Cells[0][dmodk].Mean != tbl.Cells[2][dmodk].Mean {
		t.Error("d-mod-k series should be flat in K")
	}
	if !(tbl.Cells[2][disjoint].Mean < tbl.Cells[0][disjoint].Mean) {
		t.Error("disjoint should improve with K")
	}
	if !(tbl.Cells[1][disjoint].Mean < tbl.Cells[1][dmodk].Mean) {
		t.Error("disjoint(2) should beat d-mod-k")
	}
	// K = max paths reaches the optimal (UMULTI) value: shift==disjoint
	// on two-level trees.
	sh := col("shift-1")
	if tbl.Cells[2][sh].Mean != tbl.Cells[2][disjoint].Mean {
		t.Error("shift-1 and disjoint must coincide on 2-level trees")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tbl := &Table{
		Title:    "demo",
		XLabel:   "x",
		XValues:  []string{"1", "2"},
		Columns:  []string{"a", "b,with comma"},
		Cells:    [][]Cell{{{Mean: 1}, {Mean: 2}}, {{Mean: 3, HalfWidth: 0.5}, {Mean: 4}}},
		Footnote: "note",
	}
	var txt bytes.Buffer
	tbl.Render(&txt)
	out := txt.String()
	for _, want := range []string{"demo", "note", "3±0.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines: %v", lines)
	}
	if !strings.Contains(lines[0], `"b,with comma"`) {
		t.Errorf("csv header not escaped: %s", lines[0])
	}
	if lines[2] != "2,3,0.5,4,0" {
		t.Errorf("csv row: %s", lines[2])
	}
}

func TestTheorem1AllOnes(t *testing.T) {
	tbl := Theorem1(tinyScale(), 5)
	if len(tbl.Cells) == 0 {
		t.Fatal("no rows")
	}
	for i, row := range tbl.Cells {
		if math.Abs(row[0].Mean-1) > 1e-9 {
			t.Errorf("%s: worst PERF %g", tbl.XValues[i], row[0].Mean)
		}
	}
}

func TestTheorem2MatchesPrediction(t *testing.T) {
	tbl := Theorem2()
	for i, row := range tbl.Cells {
		got, predicted := row[0].Mean, row[1].Mean
		if math.Abs(got-predicted) > 1e-9 {
			t.Errorf("%s: PERF %g, predicted %g", tbl.XValues[i], got, predicted)
		}
		if umulti := row[5].Mean; math.Abs(umulti-1) > 1e-9 {
			t.Errorf("%s: UMULTI PERF %g", tbl.XValues[i], umulti)
		}
	}
}

func TestTierBalanceShowsDisjointAdvantage(t *testing.T) {
	tbl := TierBalance(tinyScale(), 4, 3)
	// Row 1 is tier 1-2; columns: shift up, shift down, disjoint up,
	// disjoint down. Disjoint must be clearly better there.
	shiftUp, disjointUp := tbl.Cells[1][0].Mean, tbl.Cells[1][2].Mean
	if disjointUp >= shiftUp {
		t.Fatalf("tier 1-2: disjoint %g not below shift-1 %g", disjointUp, shiftUp)
	}
}

func TestLIDBudgetMarksRangerUnrealizable(t *testing.T) {
	tbl := LIDBudget()
	var rangerRow []Cell
	for i, x := range tbl.XValues {
		if x == string(topology.Paper24Port3Tree) {
			rangerRow = tbl.Cells[i]
		}
	}
	if rangerRow == nil {
		t.Fatal("ranger row missing")
	}
	// K=1..8 fit; K=16+ do not.
	for j, k := range []int{1, 2, 4, 8} {
		if rangerRow[j].Mean <= 0 {
			t.Errorf("K=%d should fit on the 24-port 3-tree", k)
		}
	}
	for j := 4; j < len(rangerRow); j++ {
		if rangerRow[j].Mean != -1 {
			t.Errorf("column %d should be unrealizable", j)
		}
	}
}

func TestEffectiveDiversityTable(t *testing.T) {
	tbl := EffectiveDiversity(4)
	if len(tbl.Cells) != 3 {
		t.Fatalf("rows %d", len(tbl.Cells))
	}
	// At NCA level 2 disjoint keeps 4 paths, shift-1 fewer.
	if tbl.Cells[1][1].Mean != 4 {
		t.Errorf("disjoint diversity %g", tbl.Cells[1][1].Mean)
	}
	if tbl.Cells[1][0].Mean >= tbl.Cells[1][1].Mean {
		t.Errorf("shift-1 diversity %g not below disjoint", tbl.Cells[1][0].Mean)
	}
	// At the top level all schemes keep K.
	for j := range tbl.Columns {
		if tbl.Cells[2][j].Mean != 4 {
			t.Errorf("%s top-level diversity %g", tbl.Columns[j], tbl.Cells[2][j].Mean)
		}
	}
}

func TestWorkloadSensitivity(t *testing.T) {
	tbl := WorkloadSensitivity(tinyScale())
	if len(tbl.Cells) != 3 || len(tbl.Columns) != 2 {
		t.Fatalf("table shape")
	}
	// Fixed assignment: disjoint(8) must beat d-mod-k.
	if tbl.Cells[2][0].Mean <= tbl.Cells[0][0].Mean {
		t.Errorf("fixed assignment: disjoint(8) %g <= d-mod-k %g",
			tbl.Cells[2][0].Mean, tbl.Cells[0][0].Mean)
	}
	// Per-message uniform: d-mod-k at least on par with disjoint(8).
	if tbl.Cells[2][1].Mean > tbl.Cells[0][1].Mean+0.05 {
		t.Errorf("per-message: disjoint(8) %g should not beat d-mod-k %g",
			tbl.Cells[2][1].Mean, tbl.Cells[0][1].Mean)
	}
}

func TestTable1Shape(t *testing.T) {
	tbl := Table1(tinyScale())
	if len(tbl.Cells) != 4 || len(tbl.Columns) != 4 {
		t.Fatalf("table shape %dx%d", len(tbl.Cells), len(tbl.Columns))
	}
	col := func(name string) int {
		for j, c := range tbl.Columns {
			if c == name {
				return j
			}
		}
		t.Fatalf("column %s missing", name)
		return -1
	}
	// Throughput of disjoint rises from K=1 to K=8 and ends above
	// d-mod-k.
	dj, dk := col("disjoint"), col("d-mod-k")
	if !(tbl.Cells[3][dj].Mean > tbl.Cells[0][dj].Mean) {
		t.Error("disjoint throughput should grow with K")
	}
	if !(tbl.Cells[3][dj].Mean > tbl.Cells[3][dk].Mean) {
		t.Error("disjoint(8) should beat d-mod-k")
	}
}

func TestFig5Shape(t *testing.T) {
	sc := tinyScale()
	sc.Loads = []float64{0.3, 0.9}
	tbl := Fig5(sc)
	if len(tbl.Cells) != 2 || len(tbl.Columns) != 8 {
		t.Fatalf("table shape %dx%d", len(tbl.Cells), len(tbl.Columns))
	}
	for j := range tbl.Columns {
		lo, hi := tbl.Cells[0][j].Mean, tbl.Cells[1][j].Mean
		if lo <= 0 {
			t.Errorf("%s: zero delay at low load", tbl.Columns[j])
		}
		if hi < lo {
			t.Errorf("%s: delay %g at high load below %g at low load", tbl.Columns[j], hi, lo)
		}
	}
}
