package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xgftsim/internal/adversary"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/builders_golden.txt from the current table builders")

const buildersGoldenPath = "testdata/builders_golden.txt"

// goldenScale samples adaptively (columns stop at different counts)
// and keeps the flit windows of tinyScale.
func goldenScale() Scale {
	sc := tinyScale()
	sc.Sampling = stats.AdaptiveConfig{InitialSamples: 10, MaxSamples: 60, RelPrecision: 0.02}
	sc.Workers = 2
	return sc
}

// goldenTable is one builder's table on one fabric over the requested
// K rows ks.
type goldenTable struct {
	name string
	topo *topology.Topology
	ks   []int
	tbl  *Table
}

// goldenTables builds the K-grid tables of Fig4Ks, AllToAllShift and
// WorstCaseSearch on two small fabrics, with K rows below, at and
// above each fabric's MaxPaths, plus Table1 (its fabric is fixed). They
// are built once and shared by the golden and the grid-rule tests.
var goldenTables = sync.OnceValue(func() []goldenTable {
	sc := goldenScale()
	ks := []int{1, 2, 3, 4, 8, 16}
	var out []goldenTable
	for _, tp := range []*topology.Topology{
		topology.MustNew(2, []int{4, 8}, []int{1, 4}),       // 32 endpoints, MaxPaths 4
		topology.MustNew(3, []int{4, 4, 4}, []int{1, 4, 2}), // 64 endpoints, MaxPaths 8
	} {
		out = append(out,
			goldenTable{"fig4", tp, ks, Fig4Ks(tp, ks, sc, 7)},
			goldenTable{"alltoall", tp, ks, AllToAllShift(tp, ks)},
			goldenTable{"worstcase", tp, ks, WorstCaseSearch(tp, ks, adversary.Config{Steps: 150, Restarts: 2, Seed: 5})},
		)
	}
	return append(out, goldenTable{"table1", table1Topology(), []int{1, 2, 4, 8}, Table1(sc)})
})

// goldenLines renders every cell as the bits of its mean and
// half-width plus its sample count.
func goldenLines(tables []goldenTable) []string {
	var lines []string
	for _, g := range tables {
		for i, x := range g.tbl.XValues {
			for j, col := range g.tbl.Columns {
				c := g.tbl.Cells[i][j]
				lines = append(lines, fmt.Sprintf("%s %s K=%s %s %016x %016x %d",
					g.name, strings.ReplaceAll(g.topo.String(), " ", ""), x, col,
					math.Float64bits(c.Mean), math.Float64bits(c.HalfWidth), c.Samples))
			}
		}
	}
	return lines
}

// TestBuildersGolden pins every cell of Fig4Ks, AllToAllShift,
// WorstCaseSearch and Table1 on small fabrics to the values recorded
// in testdata/builders_golden.txt, bit for bit, so a refactor of how
// the builders schedule their (scheme, K) cells cannot move a number.
// Run with -update to re-record after an intended change of a result.
func TestBuildersGolden(t *testing.T) {
	got := goldenLines(goldenTables())
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(buildersGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(buildersGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", buildersGoldenPath, len(got))
		return
	}
	raw, err := os.ReadFile(buildersGoldenPath)
	if err != nil {
		t.Fatalf("%v (record it with go test -run TestBuildersGolden -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d cells, builders produced %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("cell %d differs:\n got  %s\n want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... %d cells differ in all", bad)
	}
}
