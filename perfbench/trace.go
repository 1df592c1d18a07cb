package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one job share
// its ID; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // Unix ns, wall clock
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// start opens a span now and returns its ID.
func (t *tracer) start(parent int, name, job string) int {
	return t.record(parent, name, job, time.Now(), time.Time{})
}

// end closes span id now.
func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id-1].End = time.Now().UnixNano()
	t.mu.Unlock()
}

// record adds a span with known bounds (end may be zero and set later).
func (t *tracer) record(parent int, name, job string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: start.UnixNano()}
	if !end.IsZero() {
		s.End = end.UnixNano()
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	iv := make([][2]int64, 0, len(ivs))
	for _, v := range ivs {
		a, b := max(v[0], lo), min(v[1], hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end int64 = 0, lo
	for _, v := range iv {
		a := max(v[0], end)
		if v[1] > a {
			sum += v[1] - a
			end = v[1]
		}
	}
	return sum
}
