package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a trace. Trace is the file's (or
// request's) ID; Parent is the ID of the span that caused this one (0
// for the trace's root).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name up to its first dot: "watcher.settle" belongs
// to watcher, "compute" to compute.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op returning 0.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records [start, end] as a span of trace under parent and returns
// its ID. Intervals with a missing end point are dropped.
func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	if t == nil || end.IsZero() {
		return 0
	}
	id := t.begin(trace, parent, name, start)
	t.end(id, end)
	return id
}

// begin opens a span whose end is not yet known and returns its ID, so
// that children can name it as their parent before it closes.
func (t *tracer) begin(trace string, parent int, name string, start time.Time) int {
	if t == nil || start.IsZero() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start.UnixNano()})
	return id
}

// end closes span id at t (never before its start).
func (t *tracer) end(id int, at time.Time) {
	if t == nil || id == 0 || at.IsZero() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = max(at.UnixNano(), s.Start)
}

// snapshot returns the closed spans; a span never closed (a file whose
// record never became visible) is left out.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
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

// selfTimes returns each span's self time, keyed by span ID: its
// duration minus the part of its interval that its children cover.
// Children may overlap one another and may stick out of their parent;
// only the union of their intervals clipped to the parent is
// subtracted, so self time is never negative and never double counts.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to [lo, hi].
func covered(lo, hi int64, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// traceLayers are the layers whose self time the traced run reports.
var traceLayers = []string{"watcher", "flows", "transfer", "compute", "search", "portal"}

// traceMetrics summarizes a traced run: per layer, the median over
// traces of the layer's summed span self time; and, for the pipeline
// workloads, the median share of a batch's run time (one file's
// flows.run span) that the "transfer" and "compute" spans under it
// (the layers' active windows, not their queue waits) account for by
// self time.
func traceMetrics(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	perTrace := map[string]map[string]time.Duration{}
	var transferShare, computeShare []float64
	runSelf := map[int]map[string]time.Duration{} // flows.run span ID → child name → self
	for _, s := range spans {
		m := perTrace[s.Trace]
		if m == nil {
			m = map[string]time.Duration{}
			perTrace[s.Trace] = m
		}
		m[s.layer()] += self[s.ID]
		if p, ok := byID[s.Parent]; ok && p.Name == "flows.run" {
			if runSelf[p.ID] == nil {
				runSelf[p.ID] = map[string]time.Duration{}
			}
			runSelf[p.ID][s.Name] += self[s.ID]
		}
	}
	for id, m := range runSelf {
		d := byID[id].dur()
		if d <= 0 {
			continue
		}
		transferShare = append(transferShare, float64(m["transfer"])/float64(d))
		computeShare = append(computeShare, float64(m["compute"])/float64(d))
	}
	out := map[string]float64{
		"trace.spans":              float64(len(spans)),
		"trace.run_share.transfer": zeroIfNaN(median(transferShare)),
		"trace.run_share.compute":  zeroIfNaN(median(computeShare)),
	}
	for _, l := range traceLayers {
		var xs []float64
		for _, m := range perTrace {
			if d, ok := m[l]; ok {
				xs = append(xs, ms(d))
			}
		}
		out[fmt.Sprintf("trace.self_ms.%s", l)] = zeroIfNaN(median(xs))
	}
	return out
}

// zeroIfNaN maps the empty-sample NaN to 0: a layer the workload does
// not exercise reports 0, not an unparseable value.
func zeroIfNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
