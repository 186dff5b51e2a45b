package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"xgftsim/internal/topology"
)

// Selector computes the set of shortest-path indices an SD pair may
// use under a routing scheme. Implementations must be safe for
// concurrent use: any randomness comes from the rng argument, which
// callers derive deterministically per pair or per sample.
//
// Prefix nesting: every scheme in this package additionally guarantees
// that, for a fixed pair and RNG stream, the list produced at limit K
// is a prefix of the list produced at limit K+1 (see PrefixNested).
// The multi-K evaluator depends on this to serve a whole K grid from
// one Kmax path derivation; custom selectors that uphold the invariant
// can opt in by implementing interface{ PrefixNested() bool }.
type Selector interface {
	// Name returns the scheme's short identifier (e.g. "disjoint").
	Name() string
	// MultiPath reports whether the scheme honours the path limit K.
	// Single-path schemes (d-mod-k, s-mod-k, random-single) ignore K.
	MultiPath() bool
	// Select appends the path indices for the SD pair (NCA level k
	// must be >= 1) to buf and returns the extended slice. At most
	// min(K, WProd(k)) distinct indices are produced; limK <= 0 means
	// unlimited. rng may be nil for deterministic schemes.
	Select(t *topology.Topology, src, dst, limK int, rng *rand.Rand, buf []int) []int
}

// clampK resolves the effective number of paths for a pair with X
// shortest paths under limit limK (<= 0 meaning unlimited).
func clampK(limK, x int) int {
	if limK <= 0 || limK > x {
		return x
	}
	return limK
}

// DModK is the destination-mod-k single-path scheme (Lin et al.), the
// de-facto standard fat-tree routing realized by InfiniBand subnet
// managers. It ignores K.
type DModK struct{}

// Name implements Selector.
func (DModK) Name() string { return "d-mod-k" }

// MultiPath implements Selector.
func (DModK) MultiPath() bool { return false }

// Select implements Selector.
func (DModK) Select(t *topology.Topology, src, dst, limK int, _ *rand.Rand, buf []int) []int {
	return append(buf, DModKIndex(t, dst, t.NCALevel(src, dst)))
}

// SModK is the source-mod-k single-path scheme; the paper notes its
// performance is indistinguishable from d-mod-k.
type SModK struct{}

// Name implements Selector.
func (SModK) Name() string { return "s-mod-k" }

// MultiPath implements Selector.
func (SModK) MultiPath() bool { return false }

// Select implements Selector.
func (SModK) Select(t *topology.Topology, src, dst, limK int, _ *rand.Rand, buf []int) []int {
	return append(buf, SModKIndex(t, src, t.NCALevel(src, dst)))
}

// RandomSingle picks one shortest path uniformly at random per SD pair
// (Greenberg & Leiserson style randomized routing). It ignores K.
type RandomSingle struct{}

// Name implements Selector.
func (RandomSingle) Name() string { return "random-single" }

// MultiPath implements Selector.
func (RandomSingle) MultiPath() bool { return false }

// Select implements Selector.
func (RandomSingle) Select(t *topology.Topology, src, dst, limK int, rng *rand.Rand, buf []int) []int {
	x := t.WProd(t.NCALevel(src, dst))
	return append(buf, rng.Intn(x))
}

// Shift1 is the paper's shift-1 heuristic: take the d-mod-k path index
// i and the K-1 consecutive indices after it, (i+1) mod X ...
// (i+K-1) mod X. Each shift is logically one whole d-mod-k routing, but
// consecutive indices differ only at the top level, so lower-tier links
// stay shared — the limitation that motivates the disjoint heuristic.
type Shift1 struct{}

// Name implements Selector.
func (Shift1) Name() string { return "shift-1" }

// MultiPath implements Selector.
func (Shift1) MultiPath() bool { return true }

// Select implements Selector.
func (Shift1) Select(t *topology.Topology, src, dst, limK int, _ *rand.Rand, buf []int) []int {
	k := t.NCALevel(src, dst)
	x := t.WProd(k)
	i0 := DModKIndex(t, dst, k)
	n := clampK(limK, x)
	for c := 0; c < n; c++ {
		buf = append(buf, (i0+c)%x)
	}
	return buf
}

// Disjoint is the paper's disjoint heuristic: K d-mod-k-structured
// paths chosen to fork as low in the tree as possible, maximizing
// link-disjointness. Starting from the d-mod-k index i, it first takes
// the w_1 paths forking at the processing node (stride Π_{t=2..k} w_t),
// then the w_1·w_2 paths forking at level-1 switches, and so on — the
// c-th selected path offsets i by Σ_j a_j·S_j where c = Σ_j a_j·Π_{t<j} w_t
// and S_j = Π_{t=j+1..k} w_t.
type Disjoint struct{}

// Name implements Selector.
func (Disjoint) Name() string { return "disjoint" }

// MultiPath implements Selector.
func (Disjoint) MultiPath() bool { return true }

// Select implements Selector.
func (Disjoint) Select(t *topology.Topology, src, dst, limK int, _ *rand.Rand, buf []int) []int {
	k := t.NCALevel(src, dst)
	x := t.WProd(k)
	i0 := DModKIndex(t, dst, k)
	n := clampK(limK, x)
	// Odometer over DisjointOffset: digit a_j of c counts to w_j, and
	// each step adds S_j for the digit it increments and takes back
	// w_j·S_j for every digit that wraps. i0 and the offset are both
	// below x, so one conditional subtract reduces their sum.
	var a, w, s [maxDigits]int
	for j := 1; j <= k; j++ {
		w[j] = t.W(j)
		s[j] = x / t.WProd(j)
	}
	off := 0
	for c := 0; c < n; c++ {
		v := i0 + off
		if v >= x {
			v -= x
		}
		buf = append(buf, v)
		for j := 1; j <= k; j++ {
			off += s[j]
			if a[j]++; a[j] < w[j] {
				break
			}
			a[j] = 0
			off -= w[j] * s[j]
		}
	}
	return buf
}

// DisjointOffset maps enumeration position c of the disjoint heuristic
// to its index offset at NCA level k: c is decomposed little-endian
// over radices w_1, w_2, ..., w_k and each digit a_j is weighted by the
// level-j stride S_j = Π_{t=j+1..k} w_t. The map is a digit-reversal
// bijection on [0, X), so all X offsets are distinct and K = X yields
// UMULTI. Exposed for the InfiniBand LFT synthesizer, which applies
// the heuristic at full height to destination path tags.
func DisjointOffset(t *topology.Topology, k, c int) int {
	off := 0
	for j := 1; j <= k; j++ {
		a := c % t.W(j)
		c /= t.W(j)
		off += a * (t.WProd(k) / t.WProd(j))
	}
	return off
}

// RandomK is the paper's random heuristic: min(K, X) distinct shortest
// paths drawn uniformly at random. It serves as the benchmark the
// structured heuristics must beat.
type RandomK struct{}

// Name implements Selector.
func (RandomK) Name() string { return "random" }

// MultiPath implements Selector.
func (RandomK) MultiPath() bool { return true }

// randomKDenseX bounds the dense-draw regime: pairs with at most this
// many shortest paths draw by partial Fisher-Yates over the whole
// index range. The regime is a function of X alone — never of the
// requested n — so that draws for increasing K extend one RNG stream
// and Select(K) stays a prefix of Select(K+1) (see PrefixNested).
const randomKDenseX = 16

// Select implements Selector. Both draw regimes are prefix-nested and
// allocation-free in the steady state: scratch lives in the spare
// capacity of buf, so callers reusing a path buffer (PathScratch, the
// evaluators) pay no per-pair allocation.
func (RandomK) Select(t *topology.Topology, src, dst, limK int, rng *rand.Rand, buf []int) []int {
	k := t.NCALevel(src, dst)
	x := t.WProd(k)
	n := clampK(limK, x)
	base := len(buf)
	if x <= randomKDenseX {
		// Dense draw: partial Fisher-Yates over [0, x), materialized in
		// buf's tail. Step i only touches positions >= i, so the first n
		// outputs depend only on the first n draws: nested by
		// construction. n == x costs one fewer draw (last slot is
		// forced), which matches the n = x-1 stream exactly.
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
	// Sparse draw: rejection-sample distinct indices, n <= x/4 keeping
	// the expected rejections below n/3. The first m accepted values are
	// a pure function of the stream, so truncating at any n <= x/4
	// nests. Membership lives in a bitset carved from buf's spare
	// capacity past everything the draw writes: the accepted prefix, and
	// for the hybrid tail below the whole x-entry pool.
	lim := min(n, x/4)
	end := base + lim
	if n > lim {
		end = base + x
	}
	words := (x + bits.UintSize - 1) / bits.UintSize
	buf = slices.Grow(buf, end+words-base)
	seen := buf[end : end+words]
	clear(seen)
	for len(buf)-base < lim {
		v := rng.Intn(x)
		if w := &seen[v/bits.UintSize]; uint(*w)>>(v%bits.UintSize)&1 == 0 {
			*w |= 1 << (v % bits.UintSize)
			buf = append(buf, v)
		}
	}
	if n == lim {
		return buf
	}
	// Hybrid tail for n > x/4: lay out the not-yet-drawn indices in
	// ascending order after the accepted prefix and continue with
	// Fisher-Yates over that pool. The pool and its permutation are
	// again pure functions of the stream consumed so far, so every
	// larger n extends the same sequence.
	pool := buf[base+lim : base+x]
	i := 0
	for w, word := range seen {
		// The complement's set bits below x, lowest first.
		free := ^uint(word)
		if rest := x - w*bits.UintSize; rest < bits.UintSize {
			free &= 1<<rest - 1
		}
		for ; free != 0; free &= free - 1 {
			pool[i] = w*bits.UintSize + bits.TrailingZeros(free)
			i++
		}
	}
	buf = buf[:base+x]
	for i := 0; i < n-lim && i < len(pool)-1; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return buf[:base+n]
}

// UMulti is the unlimited multi-path routing UMULTI: every shortest
// path carries an equal share. Theorem 1 proves its oblivious
// performance ratio is exactly 1 on any XGFT.
type UMulti struct{}

// Name implements Selector.
func (UMulti) Name() string { return "umulti" }

// MultiPath implements Selector.
func (UMulti) MultiPath() bool { return true }

// Select implements Selector.
func (UMulti) Select(t *topology.Topology, src, dst, limK int, _ *rand.Rand, buf []int) []int {
	x := t.WProd(t.NCALevel(src, dst))
	for i := 0; i < x; i++ {
		buf = append(buf, i)
	}
	return buf
}

// PrefixNested reports whether sel guarantees the prefix-nesting
// invariant: for every topology, SD pair and RNG stream state, the
// path list produced at limit K is a prefix of the list produced at
// limit K+1. Single-path schemes and UMULTI nest trivially (the list
// does not depend on K); shift-1 and disjoint enumerate offsets
// sequentially; random's draw regimes are pure functions of X and the
// stream (see RandomK.Select). The multi-K evaluator requires this
// guarantee to serve an entire K grid from one Kmax derivation.
// Third-party selectors can opt in by implementing
// interface{ PrefixNested() bool }.
func PrefixNested(sel Selector) bool {
	switch sel.(type) {
	case DModK, SModK, RandomSingle, Shift1, Disjoint, RandomK, UMulti:
		return true
	}
	if p, ok := sel.(interface{ PrefixNested() bool }); ok {
		return p.PrefixNested()
	}
	return false
}

// SelectorByName resolves a scheme identifier (case-insensitive,
// accepting a few aliases) to its Selector.
func SelectorByName(name string) (Selector, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "d-mod-k", "dmodk", "dest-mod-k":
		return DModK{}, nil
	case "s-mod-k", "smodk", "source-mod-k":
		return SModK{}, nil
	case "random-single", "randsingle", "random1":
		return RandomSingle{}, nil
	case "shift-1", "shift1", "shift":
		return Shift1{}, nil
	case "disjoint":
		return Disjoint{}, nil
	case "random", "random-k", "randomk":
		return RandomK{}, nil
	case "umulti", "unlimited", "multipath-all":
		return UMulti{}, nil
	}
	return nil, fmt.Errorf("core: unknown routing scheme %q (want one of %s)", name, strings.Join(SelectorNames(), ", "))
}

// SelectorNames lists the canonical scheme identifiers.
func SelectorNames() []string {
	names := []string{"d-mod-k", "s-mod-k", "random-single", "shift-1", "disjoint", "random", "umulti"}
	sort.Strings(names)
	return names
}
