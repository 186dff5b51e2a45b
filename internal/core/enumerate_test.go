package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"xgftsim/internal/topology"
)

// fig3 is the paper's Figure 3 tree: XGFT(3;4,4,4;1,4,2) with 64
// processing nodes and 8 shortest paths between far-apart pairs.
func fig3(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.FromPaper(topology.PaperFigure3Tree)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	trees := []*topology.Topology{
		topology.MustNew(3, []int{4, 4, 4}, []int{1, 4, 2}),
		topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4}),
		topology.MustNew(2, []int{8, 16}, []int{1, 8}),
		topology.MustNew(3, []int{2, 2, 2}, []int{2, 3, 2}),
	}
	for _, tp := range trees {
		for k := 1; k <= tp.H(); k++ {
			x := tp.WProd(k)
			for idx := 0; idx < x; idx++ {
				up := DecodePathIndex(tp, k, idx, nil)
				if len(up) != k {
					t.Fatalf("%s k=%d: decoded %d digits", tp, k, len(up))
				}
				for j := 1; j <= k; j++ {
					if up[j-1] < 0 || up[j-1] >= tp.W(j) {
						t.Fatalf("%s: digit u_%d=%d out of range", tp, j, up[j-1])
					}
				}
				if back := EncodePathIndex(tp, up); back != idx {
					t.Fatalf("%s k=%d: Encode(Decode(%d)) = %d", tp, k, idx, back)
				}
			}
		}
	}
}

func TestDecodeAppendsToBuf(t *testing.T) {
	tp := fig3(t)
	buf := []int{9, 9}
	out := DecodePathIndex(tp, 3, 7, buf)
	if len(out) != 5 || out[0] != 9 || out[1] != 9 {
		t.Fatalf("decode clobbered prefix: %v", out)
	}
}

func TestDecodePanicsOutOfRange(t *testing.T) {
	tp := fig3(t)
	for _, idx := range []int{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DecodePathIndex(%d) should panic", idx)
				}
			}()
			DecodePathIndex(tp, 3, idx, nil)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EncodePathIndex with bad digit should panic")
			}
		}()
		EncodePathIndex(tp, []int{0, 4, 0})
	}()
}

// TestPaperFigure3DModK reproduces the paper's worked example: the
// d-mod-k path between SD pair (0, 63) on Figure 3's tree is Path 7.
func TestPaperFigure3DModK(t *testing.T) {
	tp := fig3(t)
	k := tp.NCALevel(0, 63)
	if k != 3 {
		t.Fatalf("NCA(0,63)=%d want 3", k)
	}
	if x := tp.NumPathsBetween(0, 63); x != 8 {
		t.Fatalf("X=%d want 8", x)
	}
	if idx := DModKIndex(tp, 63, k); idx != 7 {
		t.Fatalf("d-mod-k index = %d, want 7", idx)
	}
}

// TestDModKPortRule checks the definition directly: climbing at level
// j-1, d-mod-k must use parent port (dst / Π_{t<j} w_t) mod w_j.
func TestDModKPortRule(t *testing.T) {
	trees := []*topology.Topology{
		topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4}),
		topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3}),
	}
	for _, tp := range trees {
		n := tp.NumProcessors()
		for dst := 0; dst < n; dst++ {
			for k := 1; k <= tp.H(); k++ {
				up := DecodePathIndex(tp, k, DModKIndex(tp, dst, k), nil)
				for j := 1; j <= k; j++ {
					want := (dst / tp.WProd(j-1)) % tp.W(j)
					if up[j-1] != want {
						t.Fatalf("%s dst=%d k=%d: u_%d=%d want %d", tp, dst, k, j, up[j-1], want)
					}
				}
			}
		}
	}
}

// TestConsecutiveIndicesForkAtTop pins the canonical enumeration
// property the shift-1 discussion relies on: consecutive path indices
// (no carry) differ only at the top-level choice.
func TestConsecutiveIndicesForkAtTop(t *testing.T) {
	tp := fig3(t)
	k := 3
	for idx := 0; idx+1 < tp.WProd(k); idx++ {
		a := DecodePathIndex(tp, k, idx, nil)
		b := DecodePathIndex(tp, k, idx+1, nil)
		if a[k-1]+1 == b[k-1] { // no carry out of u_k
			if !reflect.DeepEqual(a[:k-1], b[:k-1]) {
				t.Fatalf("indices %d,%d differ below top: %v vs %v", idx, idx+1, a, b)
			}
			if ForkLevel(tp, k, idx, idx+1) != k {
				t.Fatalf("ForkLevel(%d,%d) != %d", idx, idx+1, k)
			}
		}
	}
}

func TestForkLevel(t *testing.T) {
	tp := fig3(t) // w = (1,4,2)
	cases := []struct{ a, b, want int }{
		{7, 7, 4}, // identical: never fork
		{7, 6, 3}, // differ in u_3 only
		{7, 5, 2}, // 7=(0,3,1), 5=(0,2,1): differ in u_2
		{7, 1, 2}, // 1=(0,0,1)
		{0, 1, 3},
	}
	for _, c := range cases {
		if got := ForkLevel(tp, 3, c.a, c.b); got != c.want {
			t.Errorf("ForkLevel(%d,%d)=%d want %d", c.a, c.b, got, c.want)
		}
		if got := ForkLevel(tp, 3, c.b, c.a); got != c.want {
			t.Errorf("ForkLevel(%d,%d)=%d want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
	// Property: paths sharing digits u_1..u_{f-1} and differing at u_f
	// have fork level f; verified exhaustively via digit comparison.
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			da := DecodePathIndex(tp, 3, a, nil)
			db := DecodePathIndex(tp, 3, b, nil)
			want := 4
			for j := 3; j >= 1; j-- {
				if da[j-1] != db[j-1] {
					want = j
				}
			}
			if got := ForkLevel(tp, 3, a, b); got != want {
				t.Fatalf("ForkLevel(%d,%d)=%d want %d", a, b, got, want)
			}
		}
	}
}

// TestForkLevelLinkDisjointness verifies the structural meaning of the
// fork level: two paths of an SD pair share exactly their first f-1 up
// links and last f-1 down links, and are link-disjoint in between.
func TestForkLevelLinkDisjointness(t *testing.T) {
	tp := fig3(t)
	src, dst := 0, 63
	k := tp.NCALevel(src, dst)
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if a == b {
				continue
			}
			f := ForkLevel(tp, k, a, b)
			la := PathLinksForIndex(tp, src, dst, a, nil)
			lb := PathLinksForIndex(tp, src, dst, b, nil)
			shared := make(map[topology.LinkID]bool)
			for _, l := range la {
				shared[l] = true
			}
			nShared := 0
			for _, l := range lb {
				if shared[l] {
					nShared++
				}
			}
			if want := 2 * (f - 1); nShared != want {
				t.Fatalf("paths %d,%d fork=%d: %d shared links, want %d", a, b, f, nShared, want)
			}
		}
	}
}

func TestPortRouteFollowsPath(t *testing.T) {
	trees := []*topology.Topology{
		fig3(t),
		topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3}),
		topology.MustNew(2, []int{4, 8}, []int{1, 4}),
	}
	for _, tp := range trees {
		n := tp.NumProcessors()
		if n > 48 {
			n = 48
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					if got := PortRoute(tp, src, dst, 0); got != nil {
						t.Fatalf("self route should be nil, got %v", got)
					}
					continue
				}
				x := tp.NumPathsBetween(src, dst)
				for idx := 0; idx < x; idx++ {
					ports := PortRoute(tp, src, dst, idx)
					k := tp.NCALevel(src, dst)
					if len(ports) != 2*k {
						t.Fatalf("%s (%d->%d idx %d): %d ports want %d", tp, src, dst, idx, len(ports), 2*k)
					}
					// Walk the route hop by hop through PortPeer and
					// compare with PathNodes.
					up := DecodePathIndex(tp, k, idx, nil)
					want := tp.PathNodes(src, dst, up)
					node := tp.Processor(src)
					for i, p := range ports {
						node = tp.PortPeer(node, p)
						if node != want[i+1] {
							t.Fatalf("%s (%d->%d idx %d): hop %d reached %v want %v",
								tp, src, dst, idx, i, tp.LabelOf(node), tp.LabelOf(want[i+1]))
						}
					}
					if tp.ProcessorID(node) != dst {
						t.Fatalf("route did not end at dst")
					}
				}
			}
		}
	}
}

// TestPathLinksForIndexQuick cross-validates the fused link builder
// against decode-then-realize on randomized inputs.
func TestPathLinksForIndexQuick(t *testing.T) {
	tp := topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4})
	n := tp.NumProcessors()
	f := func(s, d, i uint32) bool {
		src, dst := int(s)%n, int(d)%n
		if src == dst {
			return true
		}
		x := tp.NumPathsBetween(src, dst)
		idx := int(i) % x
		k := tp.NCALevel(src, dst)
		up := DecodePathIndex(tp, k, idx, nil)
		want := tp.PathLinks(src, dst, up)
		got := PathLinksForIndex(tp, src, dst, idx, nil)
		return reflect.DeepEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendPathSetLinksMatchesPerPath pins the pair-hoisted set
// expansion against decoding each index and calling
// AppendPathLinksNCA, for every pair and every path index on two
// asymmetric fabrics — one with w₁ > 1, where the source and
// destination bases at level 1 are not the processor's own links — and
// on sampled pairs of Figure 4 panel d. Each set is expanded in a
// scrambled index order onto a non-empty buffer.
func TestAppendPathSetLinksMatchesPerPath(t *testing.T) {
	check := func(tp *topology.Topology, src, dst int) {
		k := tp.NCALevel(src, dst)
		x := tp.WProd(k)
		idxs := make([]int, x)
		for i := range idxs {
			idxs[i] = (i*7 + 3) % x
		}
		if x%7 == 0 {
			for i := range idxs {
				idxs[i] = x - 1 - i
			}
		}
		prefix := []topology.LinkID{-1}
		var want []topology.LinkID
		want = append(want, prefix...)
		for _, idx := range idxs {
			want = tp.AppendPathLinksNCA(want, src, dst, k, DecodePathIndex(tp, k, idx, nil))
		}
		got := AppendPathSetLinks(tp, src, dst, idxs, append([]topology.LinkID(nil), prefix...))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s pair (%d,%d): set expansion %v, per-path %v", tp, src, dst, got, want)
		}
	}
	for _, tp := range []*topology.Topology{
		topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3}),
		topology.MustNew(3, []int{4, 3, 2}, []int{1, 2, 3}),
	} {
		n := tp.NumProcessors()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst {
					check(tp, src, dst)
				}
			}
		}
	}
	panelD := topology.MustNew(3, []int{12, 12, 24}, []int{1, 12, 12})
	n := panelD.NumProcessors()
	for i := 0; i < 300; i++ {
		src, dst := (i*1237+11)%n, (i*733+500)%n
		if src != dst {
			check(panelD, src, dst)
		}
	}
}
