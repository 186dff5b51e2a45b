package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the driver around
// the layer's public function. Parent is the id of the span that
// caused it, 0 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the traced protocols can run untraced too.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int32, layer, name string) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured by the caller.
func (t *tracer) add(parent int32, layer, name string, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
	return id
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count int
	total int64 // summed durations, ns
}

func (s spanStat) meanUs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / 1e3
}

// traceSummary is what the per-layer metrics read from a finished
// trace: self time by layer and by span name, and the share of the
// wall-clock that lies inside some layer's span rather than in the
// driver's own glue.
type traceSummary struct {
	byLayer  map[string]int64
	byName   map[string]spanStat
	coverage float64
}

// summarize computes self times: a span's duration minus the part of
// its interval that its children cover (children of parallel workers
// overlap, so the cover is a union, not a sum).
func (t *tracer) summarize() traceSummary {
	sum := traceSummary{byLayer: map[string]int64{}, byName: map[string]spanStat{}}
	if t == nil {
		return sum
	}
	children := make(map[int32][]int, len(t.spans))
	for i, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	var wall int64 // the root spans
	for _, s := range t.spans {
		dur := s.End - s.Start
		sum.byLayer[s.Layer] += dur - cover(t.spans, children[s.ID], s.Start, s.End)
		st := sum.byName[s.Name]
		st.count++
		st.total += dur
		sum.byName[s.Name] = st
		if s.Parent == 0 {
			wall += dur
		}
	}
	if wall > 0 {
		sum.coverage = 1 - float64(sum.byLayer[layerDriver])/float64(wall)
	}
	return sum
}

// layerShares renders each layer's self time as a share of all self
// time: the run's time budget by layer, summing to 100%. Parallel
// workers each contribute their own time, so the shares are of worker
// time, not of wall-clock.
func (s traceSummary) layerShares() string {
	var total int64
	layers := make([]string, 0, len(s.byLayer))
	for l, ns := range s.byLayer {
		total += ns
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return s.byLayer[layers[i]] > s.byLayer[layers[j]] })
	var sb strings.Builder
	sb.WriteString("self time by layer:")
	for _, l := range layers {
		fmt.Fprintf(&sb, " %s %.1f%%", l, 100*float64(s.byLayer[l])/float64(total))
	}
	return sb.String()
}

// cover returns the length of the union of the given spans' intervals
// clipped to [lo, hi].
func cover(spans []span, idx []int, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(idx))
	for _, i := range idx {
		a, b := spans[i].Start, spans[i].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
