// Command xgftlft synthesizes, inspects and verifies the InfiniBand
// linear forwarding tables (LFTs) realizing a routing scheme: the
// subnet-manager view of limited multi-path routing.
//
// Usage:
//
//	xgftlft -mport 8 -ntree 3 -scheme disjoint -k 4 -dump lft.txt
//	xgftlft -mport 8 -ntree 3 -scheme disjoint -k 4 -verify
//	xgftlft -mport 8 -ntree 3 -scheme shift-1 -k 4 -diversity
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
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command and returns its exit status: 2 for a usage
// error (a bad flag, topology or scheme), 1 for a failed run.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xgftlft", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("xgft", "", `topology as "h;m1,..,mh;w1,..,wh"`)
	mport := fs.Int("mport", 0, "build an m-port n-tree (with -ntree)")
	ntree := fs.Int("ntree", 0, "tree height for -mport")
	scheme := fs.String("scheme", "disjoint", "routing scheme ("+strings.Join(core.SelectorNames(), ", ")+")")
	k := fs.Int("k", 4, "paths per destination")
	seed := fs.Int64("seed", 0, "seed for randomized schemes")
	dump := fs.String("dump", "", "write the LFT dump to this file ('-' for stdout)")
	verify := fs.Bool("verify", false, "walk every (src,dst,slot) and verify shortest-path delivery")
	diversity := fs.Bool("diversity", false, "report average effective path diversity by NCA level")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "xgftlft:", err)
		return code
	}

	t, err := cliutil.BuildTopology(*spec, *mport, *ntree)
	if err != nil {
		return fail(2, err)
	}
	sel, err := core.SelectorByName(*scheme)
	if err != nil {
		return fail(2, err)
	}
	plan, err := lid.NewPlan(t, *k)
	if err != nil {
		return fail(1, err)
	}
	fabric, err := lid.BuildFabric(plan, sel, *seed)
	if err != nil {
		return fail(1, err)
	}
	st := fabric.Stats()
	fmt.Fprintf(stdout, "%s, scheme %s, K=%d: LMC=%d, %d LIDs total (%.1f%% of space)\n",
		t, sel.Name(), plan.K, plan.LMC, plan.TotalLIDs,
		100*float64(plan.TotalLIDs)/float64(lid.MaxUnicastLIDs))
	fmt.Fprintf(stdout, "forwarding tables: %d switches, %d entries each, %d total\n",
		st.Switches, st.EntriesMax, st.EntriesTotal)

	if *dump != "" {
		out := stdout
		if *dump != "-" {
			f, err := os.Create(*dump)
			if err != nil {
				return fail(1, err)
			}
			defer f.Close()
			out = f
		}
		if _, err := fabric.WriteTo(out); err != nil {
			return fail(1, err)
		}
		if *dump != "-" {
			fmt.Fprintf(stdout, "wrote LFT dump to %s\n", *dump)
		}
	}
	if *verify {
		n := t.NumProcessors()
		walks := 0
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				for slot := 0; slot < plan.LIDsPerNode; slot++ {
					path, err := fabric.Walk(src, dst, slot)
					if err != nil {
						return fail(1, fmt.Errorf("walk(%d,%d,%d): %w", src, dst, slot, err))
					}
					if want := 2*t.NCALevel(src, dst) + 1; len(path) != want {
						return fail(1, fmt.Errorf("walk(%d,%d,%d): %d nodes, want %d (non-shortest)", src, dst, slot, len(path), want))
					}
					walks++
				}
			}
		}
		fmt.Fprintf(stdout, "verified %d forwarding walks: all shortest, all delivered\n", walks)
	}
	if *diversity {
		fmt.Fprintln(stdout, "effective path diversity under LFT truncation:")
		for lvl := 1; lvl <= t.H(); lvl++ {
			var acc stats.Accumulator
			n := t.NumProcessors()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src != dst && t.NCALevel(src, dst) == lvl {
						acc.Add(float64(fabric.EffectivePaths(src, dst)))
					}
				}
			}
			if acc.N() > 0 {
				fmt.Fprintf(stdout, "  NCA level %d: %.2f distinct paths/pair (of up to %d)\n",
					lvl, acc.Mean(), min(plan.K, t.WProd(lvl)))
			}
		}
	}
	// A quick look at how the top tier spreads destinations.
	top := t.NodeAt(t.H(), 0)
	hist := fabric.PortHistogram(top)
	fmt.Fprintf(stdout, "top switch %v port spread:", t.LabelOf(top))
	for _, p := range lid.SortedPorts(hist) {
		fmt.Fprintf(stdout, " %d:%d", p, hist[p])
	}
	fmt.Fprintln(stdout)
	return 0
}
