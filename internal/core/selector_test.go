package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"xgftsim/internal/topology"
)

func allSelectors() []Selector {
	return []Selector{DModK{}, SModK{}, RandomSingle{}, Shift1{}, Disjoint{}, RandomK{}, UMulti{}}
}

func multipathSelectors() []Selector {
	return []Selector{Shift1{}, Disjoint{}, RandomK{}}
}

// TestPaperShift1Example reproduces Section 4.2.2: for SD pair (0,63)
// with d-mod-k index 7 and K=3, shift-1 selects paths 7, 0, 1.
func TestPaperShift1Example(t *testing.T) {
	tp := fig3(t)
	got := Shift1{}.Select(tp, 0, 63, 3, nil, nil)
	want := []int{7, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shift-1 K=3 = %v, want %v", got, want)
	}
}

// TestPaperDisjointExample reproduces Section 4.2.3: on Figure 3's
// tree (w=(1,4,2)) the first four disjoint paths for SD pair (0,63)
// starting from d-mod-k index 7 are 7, 1, 3, 5 — the level-2 disjoint
// set with stride w_3 = 2.
func TestPaperDisjointExample(t *testing.T) {
	tp := fig3(t)
	got := Disjoint{}.Select(tp, 0, 63, 4, nil, nil)
	want := []int{7, 1, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disjoint K=4 = %v, want %v", got, want)
	}
	// The full sequence must continue with the second level-2 group.
	got8 := Disjoint{}.Select(tp, 0, 63, 8, nil, nil)
	want8 := []int{7, 1, 3, 5, 0, 2, 4, 6}
	if !reflect.DeepEqual(got8, want8) {
		t.Fatalf("disjoint K=8 = %v, want %v", got8, want8)
	}
}

// TestDisjointMaximizesForkDepth verifies the heuristic's defining
// property: among the first K selected paths, the fork levels are as
// low as the topology permits — the first w_1 paths fork at level 1,
// the first w_1·w_2 within level <= 2, etc.
func TestDisjointMaximizesForkDepth(t *testing.T) {
	trees := []*topology.Topology{
		topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4}),
		topology.MustNew(3, []int{2, 2, 2}, []int{2, 3, 2}),
	}
	for _, tp := range trees {
		src := 0
		dst := tp.NumProcessors() - 1
		k := tp.NCALevel(src, dst)
		x := tp.NumPathsBetween(src, dst)
		seq := Disjoint{}.Select(tp, src, dst, x, nil, nil)
		group := 1
		for level := 1; level <= k; level++ {
			group *= tp.W(level)
			// All paths within the first `group` entries must pairwise
			// fork at or below `level`.
			for a := 0; a < group; a++ {
				for b := a + 1; b < group; b++ {
					if f := ForkLevel(tp, k, seq[a], seq[b]); f > level {
						t.Fatalf("%s: entries %d,%d (paths %d,%d) fork at %d, want <= %d",
							tp, a, b, seq[a], seq[b], f, level)
					}
				}
			}
		}
	}
}

// TestShift1SharesLowerLinks pins the limitation the paper describes:
// on a 3-level tree, shift-1's consecutive paths (within one top-level
// group) share all links below the top.
func TestShift1SharesLowerLinks(t *testing.T) {
	tp := fig3(t)
	paths := Shift1{}.Select(tp, 0, 63, 2, nil, nil) // 7, 0 -> carry case
	_ = paths
	// Use a pair whose d-mod-k index doesn't wrap: dst 32 has digits
	// (2,0,0) -> u=(0,0,1)? compute directly.
	k := tp.NCALevel(0, 32)
	i0 := DModKIndex(tp, 32, k)
	if i0+1 < tp.WProd(k) {
		f := ForkLevel(tp, k, i0, i0+1)
		if f != k {
			t.Fatalf("consecutive shift-1 paths fork at %d, want top level %d", f, k)
		}
	}
}

func TestSelectorsRespectK(t *testing.T) {
	trees := []*topology.Topology{
		fig3(t),
		topology.MustNew(2, []int{8, 16}, []int{1, 8}),
		topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3}),
	}
	rng := rand.New(rand.NewSource(1))
	for _, tp := range trees {
		n := tp.NumProcessors()
		pairs := [][2]int{{0, n - 1}, {1, n / 2}, {n - 1, 0}, {0, 1}}
		for _, pair := range pairs {
			src, dst := pair[0], pair[1]
			if src == dst {
				continue
			}
			x := tp.NumPathsBetween(src, dst)
			for K := 1; K <= x+2; K++ {
				for _, sel := range multipathSelectors() {
					got := sel.Select(tp, src, dst, K, rng, nil)
					wantLen := K
					if wantLen > x {
						wantLen = x
					}
					if len(got) != wantLen {
						t.Fatalf("%s %s K=%d (%d,%d): %d paths want %d", tp, sel.Name(), K, src, dst, len(got), wantLen)
					}
					seen := make(map[int]bool)
					for _, idx := range got {
						if idx < 0 || idx >= x {
							t.Fatalf("%s %s: index %d out of [0,%d)", tp, sel.Name(), idx, x)
						}
						if seen[idx] {
							t.Fatalf("%s %s K=%d: duplicate path %d in %v", tp, sel.Name(), K, idx, got)
						}
						seen[idx] = true
					}
				}
			}
			// Single-path schemes return exactly one path for any K.
			for _, sel := range []Selector{DModK{}, SModK{}, RandomSingle{}} {
				for _, K := range []int{1, 3, 0} {
					got := sel.Select(tp, src, dst, K, rng, nil)
					if len(got) != 1 {
						t.Fatalf("%s: single-path scheme returned %d paths", sel.Name(), len(got))
					}
				}
			}
		}
	}
}

// TestHeuristicsReachUMulti: at K >= X every heuristic must use all
// shortest paths — the optimality guarantee of Section 4.2.
func TestHeuristicsReachUMulti(t *testing.T) {
	trees := []*topology.Topology{
		fig3(t),
		topology.MustNew(3, []int{2, 2, 2}, []int{2, 3, 2}),
	}
	rng := rand.New(rand.NewSource(7))
	for _, tp := range trees {
		n := tp.NumProcessors()
		for _, pair := range [][2]int{{0, n - 1}, {2, 5}} {
			src, dst := pair[0], pair[1]
			if src == dst {
				continue
			}
			x := tp.NumPathsBetween(src, dst)
			want := UMulti{}.Select(tp, src, dst, 0, nil, nil)
			sort.Ints(want)
			for _, sel := range multipathSelectors() {
				for _, K := range []int{x, x + 5, 0} {
					got := sel.Select(tp, src, dst, K, rng, nil)
					sorted := append([]int(nil), got...)
					sort.Ints(sorted)
					if !reflect.DeepEqual(sorted, want) {
						t.Fatalf("%s %s K=%d: %v does not cover all %d paths", tp, sel.Name(), K, got, x)
					}
				}
			}
		}
	}
}

// TestHeuristicsStartAtDModK: at K=1 shift-1 and disjoint are exactly
// d-mod-k.
func TestHeuristicsStartAtDModK(t *testing.T) {
	tp := topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4})
	n := tp.NumProcessors()
	for src := 0; src < n; src += 7 {
		for dst := 0; dst < n; dst += 5 {
			if src == dst {
				continue
			}
			want := DModK{}.Select(tp, src, dst, 1, nil, nil)
			for _, sel := range []Selector{Shift1{}, Disjoint{}} {
				got := sel.Select(tp, src, dst, 1, nil, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s K=1 (%d,%d): %v want %v", sel.Name(), src, dst, got, want)
				}
			}
		}
	}
}

// TestShiftEqualsDisjointOnTwoLevel: on 2-level trees (w_1 = 1) the
// shift-1 and disjoint heuristics are identical, as Figure 4(a)/(c)
// state.
func TestShiftEqualsDisjointOnTwoLevel(t *testing.T) {
	for _, name := range []topology.PaperTopology{topology.Paper8Port2Tree, topology.Paper16Port2Tree} {
		tp, err := topology.FromPaper(name)
		if err != nil {
			t.Fatal(err)
		}
		n := tp.NumProcessors()
		for src := 0; src < n; src += 3 {
			for dst := 0; dst < n; dst += 7 {
				if src == dst {
					continue
				}
				x := tp.NumPathsBetween(src, dst)
				for K := 1; K <= x; K++ {
					a := Shift1{}.Select(tp, src, dst, K, nil, nil)
					b := Disjoint{}.Select(tp, src, dst, K, nil, nil)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s K=%d (%d,%d): shift %v != disjoint %v", tp, K, src, dst, a, b)
					}
				}
			}
		}
	}
}

func TestRandomKDeterministicPerRNG(t *testing.T) {
	tp := topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4})
	a := RandomK{}.Select(tp, 0, 127, 4, rand.New(rand.NewSource(42)), nil)
	b := RandomK{}.Select(tp, 0, 127, 4, rand.New(rand.NewSource(42)), nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}

// TestRandomKUniformCoverage: over many draws with K=1 every path
// should be selected with roughly equal frequency.
func TestRandomKUniformCoverage(t *testing.T) {
	tp := fig3(t)
	counts := make([]int, 8)
	rng := rand.New(rand.NewSource(3))
	const draws = 8000
	for i := 0; i < draws; i++ {
		idx := RandomK{}.Select(tp, 0, 63, 1, rng, nil)
		counts[idx[0]]++
	}
	for p, c := range counts {
		if c < draws/8-250 || c > draws/8+250 {
			t.Fatalf("path %d drawn %d times, expected ~%d", p, c, draws/8)
		}
	}
}

func TestSelectorByName(t *testing.T) {
	for _, sel := range allSelectors() {
		got, err := SelectorByName(sel.Name())
		if err != nil {
			t.Fatalf("SelectorByName(%q): %v", sel.Name(), err)
		}
		if got.Name() != sel.Name() {
			t.Fatalf("round trip %q -> %q", sel.Name(), got.Name())
		}
	}
	for _, alias := range []string{"DMODK", " shift1 ", "unlimited", "randomk"} {
		if _, err := SelectorByName(alias); err != nil {
			t.Errorf("alias %q rejected: %v", alias, err)
		}
	}
	if _, err := SelectorByName("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

// TestDisjointOffsetBijection: the disjoint enumeration is a bijection
// on [0, X) for randomized arities (property-based).
func TestDisjointOffsetBijection(t *testing.T) {
	f := func(w1, w2, w3 uint8) bool {
		ws := []int{int(w1)%4 + 1, int(w2)%4 + 1, int(w3)%4 + 1}
		tp, err := topology.New(3, []int{2, 2, 2}, ws)
		if err != nil {
			return true
		}
		x := tp.WProd(3)
		seen := make(map[int]bool, x)
		for c := 0; c < x; c++ {
			off := DisjointOffset(tp, 3, c)
			if off < 0 || off >= x || seen[off] {
				return false
			}
			seen[off] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectorValidPathsQuick: property-based check that every scheme
// returns valid, distinct path indices on random pairs and limits.
func TestSelectorValidPathsQuick(t *testing.T) {
	tp := topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4})
	n := tp.NumProcessors()
	rng := rand.New(rand.NewSource(9))
	f := func(s, d uint16, kk uint8) bool {
		src, dst := int(s)%n, int(d)%n
		if src == dst {
			return true
		}
		K := int(kk)%20 + 1
		x := tp.NumPathsBetween(src, dst)
		for _, sel := range allSelectors() {
			got := sel.Select(tp, src, dst, K, rng, nil)
			seen := make(map[int]bool)
			for _, idx := range got {
				if idx < 0 || idx >= x || seen[idx] {
					return false
				}
				seen[idx] = true
			}
			want := 1
			switch {
			case sel.Name() == "umulti":
				want = x // UMULTI uses every path regardless of K
			case sel.MultiPath():
				want = K
				if want > x {
					want = x
				}
			}
			if len(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// refRandomKSelect is RandomK.Select before membership moved into a
// bitset: the sparse draw and the hybrid tail rescan the accepted
// prefix for every draw and for every pool candidate. It stays here as
// the reference the bitset version must reproduce bit for bit.
func refRandomKSelect(t *topology.Topology, src, dst, limK int, rng *rand.Rand, buf []int) []int {
	k := t.NCALevel(src, dst)
	x := t.WProd(k)
	n := clampK(limK, x)
	base := len(buf)
	if x <= randomKDenseX {
		for i := 0; i < x; i++ {
			buf = append(buf, i)
		}
		perm := buf[base:]
		for i := 0; i < n && i < x-1; i++ {
			j := i + rng.Intn(x-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		return buf[:base+n]
	}
	lim := n
	if sparseMax := x / 4; lim > sparseMax {
		lim = sparseMax
	}
draw:
	for len(buf)-base < lim {
		v := rng.Intn(x)
		for _, u := range buf[base:] {
			if u == v {
				continue draw
			}
		}
		buf = append(buf, v)
	}
	if n == lim {
		return buf
	}
	for v := 0; v < x; v++ {
		dup := false
		for _, u := range buf[base : base+lim] {
			if u == v {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, v)
		}
	}
	pool := buf[base+lim:]
	for i := 0; i < n-lim && i < len(pool)-1; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return buf[:base+n]
}

// refDisjointOffset is DisjointOffset's digit loop, which
// Disjoint.Select replaced by an odometer.
func refDisjointOffset(t *topology.Topology, k, c int) int {
	off := 0
	for j := 1; j <= k; j++ {
		a := c % t.W(j)
		c /= t.W(j)
		off += a * (t.WProd(k) / t.WProd(j))
	}
	return off
}

// countingSource counts the values drawn from a math/rand source.
type countingSource struct {
	src rand.Source64
	n   int
}

func (s *countingSource) Int63() int64    { s.n++; return s.src.Int63() }
func (s *countingSource) Uint64() uint64  { s.n++; return s.src.Uint64() }
func (s *countingSource) Seed(seed int64) { s.src.Seed(seed) }

func newCountingRand(seed int64) (*rand.Rand, *countingSource) {
	cs := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return rand.New(cs), cs
}

// TestSelectorBitwiseRandomK compares RandomK.Select with the rescanning
// reference for X on both sides of the dense/sparse boundary and of
// every 64-bit bitset word boundary, every n <= X and unlimited, on
// several streams: the indices must be equal, and both must leave the
// stream at the same position (the same number of draws). Selecting
// behind a non-empty prefix with leftover capacity checks that the
// bitset scratch lives past the output and that the prefix survives.
func TestSelectorBitwiseRandomK(t *testing.T) {
	for _, x := range []int{17, 36, 64, 144, 255, 256, 257, 1000} {
		tp := topology.MustNew(1, []int{2}, []int{x})
		for _, seed := range []int64{1, 7, 2012} {
			for pair, sd := range [][2]int{{0, 1}, {1, 0}} {
				for n := 0; n <= x; n++ {
					wantRng, wantSrc := newCountingRand(seed*31 + int64(pair))
					gotRng, gotSrc := newCountingRand(seed*31 + int64(pair))
					want := refRandomKSelect(tp, sd[0], sd[1], n, wantRng, []int{-1})
					got := RandomK{}.Select(tp, sd[0], sd[1], n, gotRng, append(make([]int, 0, 3), -1))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("X=%d seed %d pair %v n=%d: got %v, reference %v", x, seed, sd, n, got, want)
					}
					if gotSrc.n != wantSrc.n {
						t.Fatalf("X=%d seed %d pair %v n=%d: %d draws, reference %d", x, seed, sd, n, gotSrc.n, wantSrc.n)
					}
				}
			}
		}
	}
}

// TestSelectorBitwiseDisjoint compares Disjoint.Select with the
// reference digit loop at every NCA level of three fabrics, one with
// w_1 > 1, for every n up to X and unlimited.
func TestSelectorBitwiseDisjoint(t *testing.T) {
	for _, tp := range []*topology.Topology{
		topology.MustNew(3, []int{4, 3, 2}, []int{1, 2, 3}),
		topology.MustNew(3, []int{12, 12, 24}, []int{1, 12, 12}),
		topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3}),
	} {
		n := tp.NumProcessors()
		for k := 1; k <= tp.H(); k++ {
			// A few pairs at NCA level k, with different d-mod-k starts.
			var pairs [][2]int
			for src := 0; src < n && len(pairs) < 4; src += 5 {
				for dst := n - 1; dst >= 0; dst-- {
					if tp.NCALevel(src, dst) == k {
						pairs = append(pairs, [2]int{src, dst})
						break
					}
				}
			}
			if len(pairs) == 0 {
				t.Fatalf("%s: no pair at NCA level %d", tp, k)
			}
			x := tp.WProd(k)
			for _, sd := range pairs {
				i0 := DModKIndex(tp, sd[1], k)
				for lim := 0; lim <= x; lim++ {
					var want []int
					for c := 0; c < clampK(lim, x); c++ {
						want = append(want, (i0+refDisjointOffset(tp, k, c))%x)
					}
					got := Disjoint{}.Select(tp, sd[0], sd[1], lim, nil, nil)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s level %d pair %v K=%d: got %v, reference %v", tp, k, sd, lim, got, want)
					}
				}
			}
		}
	}
}
