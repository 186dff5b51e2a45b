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
	"io"
	"os"
	"strings"

	"xgftsim/internal/cliutil"
	"xgftsim/internal/core"
	"xgftsim/internal/lid"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command and returns its exit status: 0, or 2 for a
// usage error (a bad flag, topology, scheme or node pair), reported
// before anything is printed.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xgftinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("xgft", "", `topology as "h;m1,..,mh;w1,..,wh"`)
	mport := fs.Int("mport", 0, "build an m-port n-tree (with -ntree)")
	ntree := fs.Int("ntree", 0, "tree height for -mport")
	src := fs.Int("src", -1, "source processing node for path listing")
	dst := fs.Int("dst", -1, "destination processing node for path listing")
	scheme := fs.String("scheme", "disjoint", "routing scheme for path listing ("+strings.Join(core.SelectorNames(), ", ")+")")
	k := fs.Int("k", 4, "path limit K for path listing")
	seed := fs.Int64("seed", 0, "seed for randomized schemes")
	draw := fs.Bool("draw", false, "render the topology level by level (paper Figures 1-3 style)")
	budget := fs.Int64("table-budget", core.DefaultTableBudget, "resident routing-table byte budget for the regime prediction")
	segBytes := fs.Int64("segment-bytes", 0, "block-mode segment size for the regime prediction (0: default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	usage := func(err error) int {
		fmt.Fprintln(stderr, "xgftinfo:", err)
		return 2
	}
	t, err := cliutil.BuildTopology(*spec, *mport, *ntree)
	if err != nil {
		return usage(err)
	}
	sel, err := core.SelectorByName(*scheme)
	if err != nil {
		return usage(err)
	}
	list := *src >= 0 && *dst >= 0
	if n := t.NumProcessors(); list && (*src >= n || *dst >= n) {
		return usage(fmt.Errorf("pair (%d,%d) out of range [0,%d)", *src, *dst, n))
	}
	r := core.NewRouting(t, sel, *k, *seed)
	summarize(stdout, t)
	tableRegime(stdout, r, *budget, *segBytes)
	if *draw {
		fmt.Fprintln(stdout)
		t.Draw(stdout, 16)
	}
	if list {
		listPaths(stdout, r, *src, *dst)
	}
	return 0
}

func summarize(w io.Writer, t *topology.Topology) {
	fmt.Fprintf(w, "%s\n", t)
	fmt.Fprintf(w, "  processing nodes: %d\n", t.NumProcessors())
	fmt.Fprintf(w, "  switches:         %d (top level: %d)\n", t.NumSwitches(), t.NumTopSwitches())
	for l := 0; l < t.H(); l++ {
		fmt.Fprintf(w, "  tier %d-%d cables:  %d\n", l, l+1, t.CablesAtTier(l))
	}
	fmt.Fprintf(w, "  diameter: %d hops, avg shortest path %.2f hops\n", t.Diameter(), t.AvgShortestPathLen())
	fmt.Fprintf(w, "  max oversubscription: %.2f (ideal uniform throughput %.3f)\n",
		t.MaxOversubscription(), t.IdealUniformThroughput())
	cost := t.Cost()
	fmt.Fprintf(w, "  cost: %d switches, %d switch ports, %d cables\n", cost.Switches, cost.SwitchPorts, cost.Cables)
	fmt.Fprintf(w, "  max shortest paths between nodes: %d\n", t.MaxPaths())
	if maxK := lid.MaxRealizableK(t); maxK < t.MaxPaths() {
		fmt.Fprintf(w, "  InfiniBand-addressable path limit: K <= %d (of %d)\n", maxK, t.MaxPaths())
	} else {
		fmt.Fprintf(w, "  InfiniBand can address all %d paths per pair\n", t.MaxPaths())
	}
}

// tableRegime predicts how this (topology, scheme, K) is evaluated: a
// fully compiled table when the estimate fits the budget; otherwise
// flow experiments derive paths lazily per sample and xgftpaper -exp
// mega's out-of-core block mode streams segments for generic selectors
// and builds no table at all for closed-form ones. Flow experiments
// also stay lazy on fabrics wider than the default sample cap.
func tableRegime(w io.Writer, r *core.Routing, budget, segBytes int64) {
	sel, t := r.Selector(), r.Topology()
	est := core.CompiledBytes(r)
	fmt.Fprintf(w, "  compiled routing table (%s, K=%d): %s estimated\n", sel.Name(), r.K(), byteSize(est))
	if est <= budget {
		fmt.Fprintf(w, "  fits table budget %s: full-compile regime\n", byteSize(budget))
	} else if core.ClosedForm(sel) {
		fmt.Fprintf(w, "  exceeds table budget %s: table-free (closed-form selector): no table is built in block mode\n", byteSize(budget))
	} else {
		blockSrcs, numSegments, seg := core.PlanBlocks(r, segBytes)
		fmt.Fprintf(w, "  exceeds table budget %s: block regime (%d segments x %s, %d sources each)\n",
			byteSize(budget), numSegments, byteSize(seg), blockSrcs)
	}
	if limit := (stats.AdaptiveConfig{}).WithDefaults().MaxSamples; t.NumProcessors() > limit {
		fmt.Fprintf(w, "  note: flow experiments evaluate lazily here (%d nodes > %d-sample cap); out-of-core block mode is xgftpaper -exp mega\n",
			t.NumProcessors(), limit)
	}
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

// listPaths prints the pair's nearest common ancestor and the paths r
// selects for it, as node labels; the caller has range-checked the pair.
func listPaths(w io.Writer, r *core.Routing, src, dst int) {
	t := r.Topology()
	nca := t.NCALevel(src, dst)
	fmt.Fprintf(w, "\npair (%d -> %d): NCA level %d, %d shortest paths\n", src, dst, nca, t.NumPathsBetween(src, dst))
	if src == dst {
		return
	}
	fmt.Fprintf(w, "%s selects:\n", r)
	for _, idx := range r.Paths(src, dst) {
		up := core.DecodePathIndex(t, nca, idx, nil)
		nodes := t.PathNodes(src, dst, up)
		labels := make([]string, len(nodes))
		for i, nd := range nodes {
			labels[i] = t.LabelOf(nd).String()
		}
		fmt.Fprintf(w, "  path %3d (up ports %v): %s\n", idx, up, strings.Join(labels, " -> "))
	}
}
