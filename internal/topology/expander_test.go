package topology

import "testing"

// TestLinkExpanderMatchesAppend pins the expander's factored arithmetic
// to AppendPathLinksNCA: for every pair and every canonical path index,
// PairLinks must emit the exact int32 link sequence the per-hop
// derivation produces.
func TestLinkExpanderMatchesAppend(t *testing.T) {
	for _, topo := range []*Topology{
		MustNew(2, []int{4, 3}, []int{2, 3}),
		MustNew(3, []int{4, 4, 8}, []int{1, 4, 4}),
		MustNew(3, []int{2, 3, 4}, []int{3, 2, 2}),
	} {
		t.Run(topo.String(), func(t *testing.T) {
			n := topo.NumProcessors()
			exp := topo.NewLinkExpander()
			var up [MaxHeight]int
			var want []LinkID
			idxs := make([]int32, 0, topo.MaxPaths())
			out := make([]int32, 0)
			for src := 0; src < n; src++ {
				exp.SetSource(src)
				for dst := 0; dst < n; dst++ {
					if dst == src {
						continue
					}
					k := topo.NCALevel(src, dst)
					x := topo.WProd(k)
					// All indices at once, in canonical order.
					idxs = idxs[:0]
					want = want[:0]
					for idx := 0; idx < x; idx++ {
						idxs = append(idxs, int32(idx))
						v := idx
						for j := k; j >= 1; j-- {
							up[j-1] = v % topo.W(j)
							v /= topo.W(j)
						}
						want = topo.AppendPathLinksNCA(want, src, dst, k, up[:k])
					}
					if cap(out) < len(want) {
						out = make([]int32, len(want))
					}
					out = out[:len(want)]
					exp.PairLinks(dst, k, idxs, out)
					for i := range want {
						if int32(want[i]) != out[i] {
							t.Fatalf("pair (%d,%d) k=%d link %d: expander %d != append %d",
								src, dst, k, i, out[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestLinkExpanderSubsetOrder pins that PairLinks honours the order of
// an arbitrary (non-contiguous, repeated) index list, as selectors
// produce them.
func TestLinkExpanderSubsetOrder(t *testing.T) {
	topo := MustNew(3, []int{4, 4, 8}, []int{1, 4, 4})
	exp := topo.NewLinkExpander()
	src, dst := 5, 100
	k := topo.NCALevel(src, dst)
	if k < 2 {
		t.Fatalf("want deep pair, got NCA level %d", k)
	}
	idxs := []int32{7, 0, 7, 3}
	out := make([]int32, len(idxs)*2*k)
	exp.SetSource(src)
	exp.PairLinks(dst, k, idxs, out)
	var up [MaxHeight]int
	var want []LinkID
	for _, idx := range idxs {
		v := int(idx)
		for j := k; j >= 1; j-- {
			up[j-1] = v % topo.W(j)
			v /= topo.W(j)
		}
		want = topo.AppendPathLinksNCA(want, src, dst, k, up[:k])
	}
	for i := range want {
		if int32(want[i]) != out[i] {
			t.Fatalf("link %d: expander %d != append %d", i, out[i], want[i])
		}
	}
}
