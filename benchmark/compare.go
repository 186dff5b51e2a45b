package main

import (
	"fmt"
	"io"
	"sort"
)

// compareFiles reads two record files written with -json (A the
// parent, B the change; any number of runs each) and judges every
// metric per workload:
//
//   - an end-to-end metric against its bound: REGRESSED when B's median
//     is worse than A's by more than the bound; unresolved, not
//     unchanged, when one side's own runs spread wider than the bound,
//     unless every run of B beats every run of A;
//   - a registry count or simulated statistic by equality, when the
//     runs share a seed: it must not move at all;
//   - every other per-layer metric as the two medians and their ratio,
//     without a verdict.
//
// The exit code is 1 when anything regressed or an exact metric moved.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sides [2][]runRecord
	for i, path := range []string{pathA, pathB} {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		sides[i] = recs
	}
	return compareRecords(sides[0], sides[1], stdout)
}

type metricKey struct {
	workload string
	metric   string
}

// series collects one metric's values over a side's runs.
type series struct {
	values []float64
	seeds  map[int64]bool
}

func collect(recs []runRecord) map[metricKey]*series {
	out := map[metricKey]*series{}
	for _, r := range recs {
		for name, mv := range r.Metrics {
			k := metricKey{r.Workload, name}
			s := out[k]
			if s == nil {
				s = &series{seeds: map[int64]bool{}}
				out[k] = s
			}
			s.values = append(s.values, mv.Value)
			s.seeds[r.Seed] = true
		}
	}
	return out
}

// spread is the distance between a side's extreme runs as a share of
// its median (between its quartiles once it has four runs).
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	lo, hi := quantile(xs, 0), quantile(xs, 1)
	if len(xs) >= 4 {
		lo, hi = quantile(xs, 0.25), quantile(xs, 0.75)
	}
	return (hi - lo) / m
}

func compareRecords(a, b []runRecord, w io.Writer) int {
	sa, sb := collect(a), collect(b)
	keys := make([]metricKey, 0, len(sa))
	for k := range sa {
		if _, ok := sb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	bad := 0
	fmt.Fprintf(w, "%-12s %-36s %14s %14s %8s  %s\n", "workload", "metric", "A median", "B median", "B/A", "verdict")
	for _, k := range keys {
		d := metricByName[k.metric] // unknown names get no verdict
		x, y := sa[k], sb[k]
		ma, mb := median(x.values), median(y.values)
		if ma == 0 && mb == 0 {
			continue // a layer this workload never enters
		}
		verdict := ""
		switch {
		case d.exact:
			verdict = exactVerdict(x, y)
		case d.bound > 0:
			verdict = boundVerdict(d, x.values, y.values)
		}
		if verdict == "REGRESSED" || verdict == "MOVED" {
			bad++
		}
		ratio := 0.0
		if ma != 0 {
			ratio = mb / ma
		}
		fmt.Fprintf(w, "%-12s %-36s %14.6g %14.6g %8.3f  %s\n", k.workload, k.metric, ma, mb, ratio, verdict)
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d metrics regressed or moved\n", bad)
		return 1
	}
	return 0
}

// exactVerdict demands equality of a count or simulated statistic. It
// only means something between runs of one seed.
func exactVerdict(a, b *series) string {
	if len(a.seeds) != 1 || len(b.seeds) != 1 {
		return "seeds differ, not compared"
	}
	for s := range a.seeds {
		if !b.seeds[s] {
			return "seeds differ, not compared"
		}
	}
	for _, v := range append(append([]float64(nil), a.values...), b.values...) {
		if v != a.values[0] {
			return "MOVED"
		}
	}
	return "identical"
}

func boundVerdict(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse, better := mb > ma*(1+d.bound), mb < ma*(1-d.bound)
	allBetter := quantile(b, 1) < quantile(a, 0)
	if d.better == "higher" {
		worse, better = mb < ma*(1-d.bound), mb > ma*(1+d.bound)
		allBetter = quantile(b, 0) > quantile(a, 1)
	}
	if spread(a) > d.bound || spread(b) > d.bound {
		if allBetter {
			return "improved"
		}
		return fmt.Sprintf("unresolved (spread A %.0f%% B %.0f%% > bound %.0f%%)", 100*spread(a), 100*spread(b), 100*d.bound)
	}
	switch {
	case worse:
		return "REGRESSED"
	case better:
		return "improved"
	}
	return "unchanged"
}
