// Command xgftworst searches for worst-case permutations: the
// adversarial demands that lower-bound a routing's oblivious
// performance ratio (Theorem 2 hand-constructs one for d-mod-k; the
// annealing search finds them automatically for any scheme and K).
//
// Usage:
//
//	xgftworst -mport 8 -ntree 2 -scheme d-mod-k
//	xgftworst -xgft "3;4,4,8;1,4,4" -scheme disjoint -k 4 -steps 5000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xgftsim/internal/adversary"
	"xgftsim/internal/cliutil"
	"xgftsim/internal/core"
	"xgftsim/internal/flow"
	"xgftsim/internal/traffic"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command and returns its exit status: 2 for a usage
// error (a bad flag, topology or scheme).
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xgftworst", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("xgft", "", `topology as "h;m1,..,mh;w1,..,wh"`)
	mport := fs.Int("mport", 0, "build an m-port n-tree (with -ntree)")
	ntree := fs.Int("ntree", 0, "tree height for -mport")
	scheme := fs.String("scheme", "d-mod-k", "routing scheme ("+strings.Join(core.SelectorNames(), ", ")+")")
	k := fs.Int("k", 1, "path limit K")
	steps := fs.Int("steps", 3000, "annealing steps per restart")
	restarts := fs.Int("restarts", 4, "annealing restarts")
	seed := fs.Int64("seed", 1, "search seed")
	show := fs.Bool("show", false, "print the worst permutation found")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	usage := func(err error) int {
		fmt.Fprintln(stderr, "xgftworst:", err)
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
	r := core.NewRouting(t, sel, *k, *seed)
	fmt.Fprintf(stdout, "searching worst permutation for %s on %s ...\n", r, t)
	res := adversary.WorstPermutation(r, adversary.Config{
		Steps:    *steps,
		Restarts: *restarts,
		Seed:     *seed,
	})
	tm := traffic.FromPermutation(res.Perm)
	fmt.Fprintf(stdout, "worst ratio found: %.4f (MLOAD %.4f / OLOAD %.4f) after %d evaluations\n",
		res.Ratio, flow.NewEvaluator(r).MaxLoad(tm), flow.OptimalLoad(t, tm), res.Evaluations)
	if *show {
		for src, dst := range res.Perm {
			if src != dst {
				fmt.Fprintf(stdout, "  %d -> %d\n", src, dst)
			}
		}
	}
	return 0
}
