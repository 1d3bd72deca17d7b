package main

// trace.go is the harness-side tracer: spans recorded from outside, around
// the public calls into each layer, kept in memory and written out when the
// workload ends. Timings are always taken (the end-to-end metrics need
// them); span records and counter snapshots only when tracing is on, so an
// untraced run pays two clock reads per call and nothing else.

import (
	"sort"
	"time"

	"retrodns/internal/obsv"
)

// span is one timed call. Parent indexes the span that caused it (-1 for a
// root); Run identifies the repetition it belongs to (scan index, pass
// index), so the spans of one scan share an identifier.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Run     int    `json:"run"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// counterSnap is the registry's counters and gauges at one span boundary.
type counterSnap struct {
	At     string           `json:"at"`
	Run    int              `json:"run"`
	AtNS   int64            `json:"at_ns"`
	Values map[string]int64 `json:"values"`
}

type tracer struct {
	on       bool
	t0       time.Time
	reg      *obsv.Registry
	spans    []span
	counters []counterSnap
}

func newTracer(on bool, reg *obsv.Registry) *tracer {
	return &tracer{on: on, t0: time.Now(), reg: reg}
}

// begin opens a span and returns its id (-1 when tracing is off) with the
// start instant, which callers reuse for their own arithmetic.
func (t *tracer) begin(name string, parent, run int) (int, time.Time) {
	now := time.Now()
	if !t.on {
		return -1, now
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Run: run, StartNS: now.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1, now
}

// end closes span id and returns the elapsed time since start.
func (t *tracer) end(id int, start time.Time) time.Duration {
	now := time.Now()
	if id >= 0 {
		t.spans[id].EndNS = now.Sub(t.t0).Nanoseconds()
	}
	return now.Sub(start)
}

// time runs fn inside a span.
func (t *tracer) time(name string, parent, run int, fn func()) time.Duration {
	id, start := t.begin(name, parent, run)
	fn()
	return t.end(id, start)
}

// snapshot records every counter and gauge at a span boundary.
func (t *tracer) snapshot(at string, run int) {
	if !t.on {
		return
	}
	vals := make(map[string]int64)
	for _, s := range t.reg.Snapshot() {
		if s.Kind == "histogram" {
			continue
		}
		vals[s.SeriesName()] = s.Value
	}
	t.counters = append(t.counters, counterSnap{At: at, Run: run, AtNS: time.Since(t.t0).Nanoseconds(), Values: vals})
}

// spanSummary aggregates one span name: how often it ran, its total
// duration, and its self time (duration minus the part its children cover).
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summary() []spanSummary {
	childNS := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*spanSummary{}
	for i, s := range t.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		d := s.EndNS - s.StartNS
		sum.Count++
		sum.TotalMS += float64(d) / 1e6
		sum.SelfMS += float64(d-childNS[i]) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// accounted returns the share of the named spans' total duration that their
// child spans cover: 1.0 means the per-layer rows add up to the parent.
func (t *tracer) accounted(name string) float64 {
	for _, s := range t.summary() {
		if s.Name == name && s.TotalMS > 0 {
			return (s.TotalMS - s.SelfMS) / s.TotalMS
		}
	}
	return 0
}

// endpointAgg is the per-endpoint aggregate HTTP requests are folded into
// instead of one span each.
type endpointAgg struct {
	Requests int64   `json:"requests"`
	Failed   int64   `json:"failed"`
	TotalMS  float64 `json:"total_ms"`
	Bytes    int64   `json:"bytes"`
}

// traceDoc is what -trace <file> writes.
type traceDoc struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Spans     []span                  `json:"spans"`
	Summary   []spanSummary           `json:"summary"`
	Counters  []counterSnap           `json:"counters"`
	Endpoints map[string]*endpointAgg `json:"http_endpoints,omitempty"`
}

// Sample statistics. Percentiles are nearest-rank on a sorted copy.

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := v
	if !sort.Float64sAreSorted(s) {
		s = sortedCopy(v)
	}
	rank := int(p/100*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func minOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
