package main

import (
	"sort"
	"sync"
	"time"
)

// opTrace records the spans of one traced operation. The benchmark opens a
// span around each call into a layer's public function; spans inside the
// program are out of scope. Layers that run only inside another call
// (graph.SmartPartition inside the solve, experiments.SummarizeSide inside
// ConvertResult) are timed by a duplicate call on the same input after the
// operation and recorded as a child of the call that contains them: the
// child's time is taken out of the parent's self time, and never counts
// towards the operation's wall time.
type opTrace struct {
	mu sync.Mutex
	t0 time.Time
	// guarded by mu
	spans []span
	// guarded by mu
	children []childSpan
	end      time.Time
}

type span struct {
	layer      string
	start, end time.Duration
}

// childSpan is a duplicate-call measurement credited inside parent.
type childSpan struct {
	layer, parent string
	dur           time.Duration
}

func newOpTrace() *opTrace { return &opTrace{t0: time.Now()} }

// do runs f as one span of layer. It is safe from several goroutines.
func (t *opTrace) do(layer string, f func() error) error {
	start := time.Since(t.t0)
	err := f()
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: layer, start: start, end: end})
	t.mu.Unlock()
	return err
}

// finish closes the operation's wall-time window.
func (t *opTrace) finish() { t.end = time.Now() }

// child times f, a duplicate of work done inside a parent span, after the
// operation finished.
func (t *opTrace) child(layer, parent string, f func() error) error {
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.mu.Lock()
	t.children = append(t.children, childSpan{layer: layer, parent: parent, dur: d})
	t.mu.Unlock()
	return err
}

// wall is the operation's wall time.
func (t *opTrace) wall() time.Duration { return t.end.Sub(t.t0) }

// selfTimes sums each layer's self time: its spans' durations minus the
// child spans credited inside them.
func (t *opTrace) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.layer] += s.end - s.start
	}
	for _, c := range t.children {
		out[c.layer] += c.dur
		out[c.parent] -= c.dur
	}
	// A duplicate call can outlast the parent's own share of it on a busy
	// machine; a self time cannot be negative.
	for layer, d := range out {
		out[layer] = max(d, 0)
	}
	return out
}

// coverage is the share of the operation's wall time inside some span.
// Spans of concurrent goroutines overlap, so the covered time is the union
// of the span intervals, not their sum.
func (t *opTrace) coverage() float64 {
	t.mu.Lock()
	iv := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var covered, curStart, curEnd time.Duration
	open := false
	for _, s := range iv {
		if open && s.start <= curEnd {
			curEnd = max(curEnd, s.end)
			continue
		}
		if open {
			covered += curEnd - curStart
		}
		curStart, curEnd, open = s.start, s.end, true
	}
	if open {
		covered += curEnd - curStart
	}
	return ratio(float64(covered), float64(t.wall()))
}

// layerSamples collects per-operation values of per-layer metrics; each
// metric reports the median over operations.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

// addTrace adds one traced operation: each layer's self time in ms, its
// coverage, and its overhead against the untraced operation it replays.
func (l layerSamples) addTrace(t *opTrace, untraced time.Duration) {
	for layer, d := range t.selfTimes() {
		l.add(layer+"_ms", ms(d))
	}
	l.add("trace.coverage", t.coverage())
	l.add("trace.overhead", ratio(float64(t.wall()), float64(untraced))-1)
}

// into writes each collected metric's median into m. Layers an operation
// did not reach count as 0 in it, so a median over operations that mostly
// skip a layer is 0.
func (l layerSamples) into(m map[string]float64, ops int) {
	for name, xs := range l {
		for len(xs) < ops {
			xs = append(xs, 0)
		}
		m[name] = median(xs)
	}
}
