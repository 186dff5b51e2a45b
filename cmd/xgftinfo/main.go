// Command xgftinfo inspects extended generalized fat-trees: node and
// link counts, the paper's tuple labels, and the shortest paths a
// routing scheme selects for a source-destination pair.
//
// Usage:
//
//	xgftinfo -xgft "3;4,4,8;1,4,4"            # topology summary
//	xgftinfo -mport 8 -ntree 3                # same tree by variant name
//	xgftinfo -xgft "3;4,4,4;1,4,2" -src 0 -dst 63 -scheme disjoint -k 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"xgftsim/internal/cliutil"
	"xgftsim/internal/core"
	"xgftsim/internal/lid"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
)

func main() {
	spec := flag.String("xgft", "", `topology as "h;m1,..,mh;w1,..,wh"`)
	mport := flag.Int("mport", 0, "build an m-port n-tree (with -ntree)")
	ntree := flag.Int("ntree", 0, "tree height for -mport")
	src := flag.Int("src", -1, "source processing node for path listing")
	dst := flag.Int("dst", -1, "destination processing node for path listing")
	scheme := flag.String("scheme", "disjoint", "routing scheme for path listing ("+strings.Join(core.SelectorNames(), ", ")+")")
	k := flag.Int("k", 4, "path limit K for path listing")
	seed := flag.Int64("seed", 0, "seed for randomized schemes")
	draw := flag.Bool("draw", false, "render the topology level by level (paper Figures 1-3 style)")
	budget := flag.Int64("table-budget", core.DefaultTableBudget, "resident routing-table byte budget for the regime prediction")
	segBytes := flag.Int64("segment-bytes", 0, "block-mode segment size for the regime prediction (0: default)")
	flag.Parse()

	t, err := cliutil.BuildTopology(*spec, *mport, *ntree)
	if err != nil {
		fatal(err)
	}
	summarize(t)
	if err := tableRegime(t, *scheme, *k, *seed, *budget, *segBytes); err != nil {
		fatal(err)
	}
	if *draw {
		fmt.Println()
		t.Draw(os.Stdout, 16)
	}
	if *src >= 0 && *dst >= 0 {
		if err := listPaths(t, *src, *dst, *scheme, *k, *seed); err != nil {
			fatal(err)
		}
	}
}

func summarize(t *topology.Topology) {
	fmt.Printf("%s\n", t)
	fmt.Printf("  processing nodes: %d\n", t.NumProcessors())
	fmt.Printf("  switches:         %d (top level: %d)\n", t.NumSwitches(), t.NumTopSwitches())
	for l := 0; l < t.H(); l++ {
		fmt.Printf("  tier %d-%d cables:  %d\n", l, l+1, t.CablesAtTier(l))
	}
	fmt.Printf("  diameter: %d hops, avg shortest path %.2f hops\n", t.Diameter(), t.AvgShortestPathLen())
	fmt.Printf("  max oversubscription: %.2f (ideal uniform throughput %.3f)\n",
		t.MaxOversubscription(), t.IdealUniformThroughput())
	cost := t.Cost()
	fmt.Printf("  cost: %d switches, %d switch ports, %d cables\n", cost.Switches, cost.SwitchPorts, cost.Cables)
	fmt.Printf("  max shortest paths between nodes: %d\n", t.MaxPaths())
	if maxK := lid.MaxRealizableK(t); maxK < t.MaxPaths() {
		fmt.Printf("  InfiniBand-addressable path limit: K <= %d (of %d)\n", maxK, t.MaxPaths())
	} else {
		fmt.Printf("  InfiniBand can address all %d paths per pair\n", t.MaxPaths())
	}
}

// tableRegime predicts how this (topology, scheme, K) is evaluated: a
// fully compiled table when the estimate fits the budget; otherwise
// flow experiments derive paths lazily per sample and xgftpaper -exp
// mega's out-of-core block mode streams segments for generic selectors
// and builds no table at all for closed-form ones. Flow experiments
// also stay lazy on fabrics wider than the default sample cap.
func tableRegime(t *topology.Topology, scheme string, k int, seed, budget, segBytes int64) error {
	sel, err := core.SelectorByName(scheme)
	if err != nil {
		return err
	}
	r := core.NewRouting(t, sel, k, seed)
	est := core.CompiledBytes(r)
	fmt.Printf("  compiled routing table (%s, K=%d): %s estimated\n", sel.Name(), k, byteSize(est))
	if est <= budget {
		fmt.Printf("  fits table budget %s: full-compile regime\n", byteSize(budget))
	} else if core.ClosedForm(sel) {
		fmt.Printf("  exceeds table budget %s: table-free (closed-form selector): no table is built in block mode\n", byteSize(budget))
	} else {
		blockSrcs, numSegments, seg := core.PlanBlocks(r, segBytes)
		fmt.Printf("  exceeds table budget %s: block regime (%d segments x %s, %d sources each)\n",
			byteSize(budget), numSegments, byteSize(seg), blockSrcs)
	}
	if limit := (stats.AdaptiveConfig{}).WithDefaults().MaxSamples; t.NumProcessors() > limit {
		fmt.Printf("  note: flow experiments evaluate lazily here (%d nodes > %d-sample cap); out-of-core block mode is xgftpaper -exp mega\n",
			t.NumProcessors(), limit)
	}
	return nil
}

// byteSize renders a byte count in the closest binary unit.
func byteSize(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.3g GiB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.3g MiB", float64(b)/float64(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.3g KiB", float64(b)/float64(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

func listPaths(t *topology.Topology, src, dst int, scheme string, k int, seed int64) error {
	n := t.NumProcessors()
	if src >= n || dst >= n {
		return fmt.Errorf("pair (%d,%d) out of range [0,%d)", src, dst, n)
	}
	sel, err := core.SelectorByName(scheme)
	if err != nil {
		return err
	}
	nca := t.NCALevel(src, dst)
	fmt.Printf("\npair (%d -> %d): NCA level %d, %d shortest paths\n", src, dst, nca, t.NumPathsBetween(src, dst))
	if src == dst {
		return nil
	}
	r := core.NewRouting(t, sel, k, seed)
	fmt.Printf("%s selects:\n", r)
	for _, idx := range r.Paths(src, dst) {
		up := core.DecodePathIndex(t, nca, idx, nil)
		nodes := t.PathNodes(src, dst, up)
		labels := make([]string, len(nodes))
		for i, nd := range nodes {
			labels[i] = t.LabelOf(nd).String()
		}
		fmt.Printf("  path %3d (up ports %v): %s\n", idx, up, strings.Join(labels, " -> "))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xgftinfo:", err)
	os.Exit(1)
}
