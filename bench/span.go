package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one replay
// iteration share Iter; Parent is the span that was open on the same rank
// when this one began, 0 for a root.
type span struct {
	ID, Parent  int
	Layer, Name string
	Rank, Iter  int
	Start, Dur  time.Duration // Start is relative to the tracer's epoch
}

// tracer keeps every rank's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ranks []*track
}

// track is one rank's span stack. It is used by that rank's goroutine
// only, so recording takes no lock.
type track struct {
	t     *tracer
	rank  int
	iter  int
	spans []span
	open  []int // indexes into spans, innermost last
}

func newTracer(n int) *tracer {
	t := &tracer{epoch: time.Now(), ranks: make([]*track, n)}
	for r := range t.ranks {
		t.ranks[r] = &track{t: t, rank: r}
	}
	return t
}

// begin opens a span under whichever span is open on this rank.
func (k *track) begin(layer, name string) {
	s := span{
		// IDs are unique across ranks: rank in the high digits.
		ID:    k.rank*1_000_000 + len(k.spans) + 1,
		Layer: layer, Name: name, Rank: k.rank, Iter: k.iter,
	}
	if len(k.open) > 0 {
		s.Parent = k.spans[k.open[len(k.open)-1]].ID
	}
	k.open = append(k.open, len(k.spans))
	k.spans = append(k.spans, s)
	// Read the clock last so the bookkeeping above stays outside the span.
	k.spans[len(k.spans)-1].Start = time.Since(k.t.epoch)
}

// end closes the innermost open span.
func (k *track) end() {
	now := time.Since(k.t.epoch)
	i := k.open[len(k.open)-1]
	k.open = k.open[:len(k.open)-1]
	k.spans[i].Dur = now - k.spans[i].Start
}

// time records an infallible f as one span.
func (k *track) time(layer, name string, f func()) {
	k.begin(layer, name)
	f()
	k.end()
}

// do records f as one span and passes its error through.
func (k *track) do(layer, name string, f func() error) error {
	k.begin(layer, name)
	err := f()
	k.end()
	if err != nil {
		return fmt.Errorf("%s.%s: %w", layer, name, err)
	}
	return nil
}

// perIteration reduces the spans selected by keep to one number per
// iteration: each rank's selected durations are summed, and the per-rank
// sums are combined by across (mean or max). Milliseconds.
func (t *tracer) perIteration(iters int, keep func(span) bool, across func([]float64) float64) []float64 {
	sums := make([][]float64, iters)
	for i := range sums {
		sums[i] = make([]float64, len(t.ranks))
	}
	for _, k := range t.ranks {
		for _, s := range k.spans {
			if s.Iter < iters && keep(s) {
				sums[s.Iter][s.Rank] += float64(s.Dur) / float64(time.Millisecond)
			}
		}
	}
	out := make([]float64, iters)
	for i := range out {
		out[i] = across(sums[i])
	}
	return out
}

// named selects spans by layer and name.
func named(layer, name string) func(span) bool {
	return func(s span) bool { return s.Layer == layer && s.Name == name }
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto): one complete ("X") event per span, one
// thread per rank, with the layer as category and the span id, parent
// span and iteration id as arguments.
func (t *tracer) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []event{{Name: "process_name", Ph: "M", Args: map[string]any{"name": workload}}}
	for _, k := range t.ranks {
		events = append(events, event{Name: "thread_name", Ph: "M", Tid: k.rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", k.rank)}})
		for _, s := range k.spans {
			events = append(events, event{
				Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
				Ts: us(s.Start), Dur: us(s.Dur), Tid: s.Rank,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "iter": s.Iter, "rank": s.Rank, "layer": s.Layer},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
