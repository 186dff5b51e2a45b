package core

import (
	"fmt"
	"testing"

	"xgftsim/internal/topology"
)

// closedFormSelectors is the set ClosedForm accepts.
var closedFormSelectors = []Selector{DModK{}, SModK{}, Shift1{}, Disjoint{}, UMulti{}}

// TestClosedFormPredicate pins which selectors run table-free and
// default to a single seed: the five deterministic built-ins, nothing
// randomized and nothing custom.
func TestClosedFormPredicate(t *testing.T) {
	for _, sel := range closedFormSelectors {
		if !ClosedForm(sel) {
			t.Errorf("ClosedForm(%s) = false, want true", sel.Name())
		}
	}
	for _, sel := range []Selector{RandomK{}, RandomSingle{}, oddCountSelector{}} {
		if ClosedForm(sel) {
			t.Errorf("ClosedForm(%s) = true, want false", sel.Name())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewRowDeriver accepted a selector with no closed form")
		}
	}()
	NewRowDeriver(NewRouting(blockTestTopo(t), RandomK{}, 4, 1))
}

// oddCountSelector is a custom selector: not one of the package's
// schemes, so it has no closed form whatever it computes.
type oddCountSelector struct{ DModK }

func (oddCountSelector) Name() string { return "custom" }

// TestRowDeriverMatchesTables pins the table-free row source against
// both tables on an asymmetric fabric (every level has its own radix,
// w1 = 1 leaves single-path pairs): for every closed-form selector and
// every ordered pair, the derived row equals the streamed segment's and
// the fully compiled table's — same links, same path count, same
// stride, in the same path-major order.
func TestRowDeriverMatchesTables(t *testing.T) {
	topo := topology.MustNew(3, []int{4, 3, 2}, []int{1, 2, 3})
	n := topo.NumProcessors()
	for _, sel := range closedFormSelectors {
		for _, k := range []int{1, 2, 3, 5, topo.MaxPaths()} {
			t.Run(fmt.Sprintf("%s-k%d", sel.Name(), k), func(t *testing.T) {
				r := NewRouting(topo, sel, k, 0)
				c, err := CompileRouting(r, 0)
				if err != nil {
					t.Fatalf("CompileRouting: %v", err)
				}
				b := NewBlockCompiledRouting(r, BlockOptions{SegmentBytes: 4 << 10})
				defer b.Close()
				if b.NumSegments() < 2 {
					t.Fatalf("want multiple segments, got %d", b.NumSegments())
				}
				d := NewRowDeriver(r)
				for g := 0; g < b.NumSegments(); g++ {
					seg, err := b.Segment(g)
					if err != nil {
						t.Fatalf("Segment(%d): %v", g, err)
					}
					for src := seg.SrcLo(); src < seg.SrcHi(); src++ {
						for dst := 0; dst < n; dst++ {
							cl, cn, cs := c.PairPathLinks(src, dst)
							sl, sn, ss := seg.PairPathLinks(src, dst)
							dl, dn, ds := d.PairPathLinks(src, dst)
							if dn != cn || ds != cs || !equalInt32(dl, cl) {
								t.Fatalf("pair (%d,%d): derived (np=%d stride=%d) %v != compiled (np=%d stride=%d) %v",
									src, dst, dn, ds, dl, cn, cs, cl)
							}
							if dn != sn || ds != ss || !equalInt32(dl, sl) {
								t.Fatalf("pair (%d,%d): derived (np=%d stride=%d) %v != segment (np=%d stride=%d) %v",
									src, dst, dn, ds, dl, sn, ss, sl)
							}
						}
					}
					b.Release(seg)
				}
			})
		}
	}
}

// TestRowDeriverAllocFree pins the deriver's steady state: rows come
// out of scratch sized at construction.
func TestRowDeriverAllocFree(t *testing.T) {
	topo := blockTestTopo(t)
	n := topo.NumProcessors()
	for _, sel := range closedFormSelectors {
		d := NewRowDeriver(NewRouting(topo, sel, 4, 0))
		src := 0
		if allocs := testing.AllocsPerRun(200, func() {
			src = (src + 37) % n
			d.PairPathLinks(src, (src*5+11)%n)
		}); allocs != 0 {
			t.Errorf("%s: PairPathLinks allocates %v objects per call, want 0", sel.Name(), allocs)
		}
	}
}
