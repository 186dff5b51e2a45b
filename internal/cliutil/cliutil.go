// Package cliutil holds the small shared helpers of the command-line
// tools: parsing topology specifications, the profiling and
// routing-table flags, and the batch tools' run record.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"xgftsim/internal/topology"
)

// BuildTopology resolves the common -xgft / -mport / -ntree flag trio:
// an explicit spec wins; otherwise an m-port n-tree is built.
func BuildTopology(spec string, mport, ntree int) (*topology.Topology, error) {
	if spec != "" {
		return ParseXGFT(spec)
	}
	if mport > 0 && ntree > 0 {
		return topology.MPortNTree(mport, ntree)
	}
	return nil, fmt.Errorf("give -xgft \"h;m1,..;w1,..\" or -mport/-ntree")
}

// ParseXGFT parses the paper notation "h;m1,..,mh;w1,..,wh" into a
// topology.
func ParseXGFT(spec string) (*topology.Topology, error) {
	parts := strings.Split(spec, ";")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad XGFT spec %q (want h;m1,..;w1,..)", spec)
	}
	h, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, fmt.Errorf("bad height in %q: %v", spec, err)
	}
	m, err := parseInts(parts[1])
	if err != nil {
		return nil, fmt.Errorf("bad m arities in %q: %v", spec, err)
	}
	w, err := parseInts(parts[2])
	if err != nil {
		return nil, fmt.Errorf("bad w arities in %q: %v", spec, err)
	}
	return topology.New(h, m, w)
}

func parseInts(s string) ([]int, error) {
	fields := strings.Split(s, ",")
	out := make([]int, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
