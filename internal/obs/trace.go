package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"time"
)

// A trace is a Recorder its owner sizes to hold a whole run, written
// through per-rank Track handles and viewed as Chrome trace-event JSON
// (chrome://tracing, Perfetto and speedscope open it): one process group
// per Pid (scenario), one thread track per Tid (rank). All tracks share
// the recorder's monotonic clock, so spans of different ranks align on
// one timeline without any cross-rank clock agreement.
//
//	tr := obs.New(1 << 16)
//	rec := tr.Track(0, rank, fmt.Sprintf("rank %d", rank))
//	sp := rec.Begin("chunking")
//	... work ...
//	sp.End()
//	_ = tr.WriteFile(path) // after all recording goroutines are done

// TrackID identifies one (pid, tid) timeline track.
type TrackID struct{ Pid, Tid int }

// Track writes trace events onto one (pid, tid) track of a recorder. A nil
// *Track is valid and every operation on it is a no-op, so instrumented
// code never branches on "is tracing enabled".
type Track struct {
	r        *Recorder
	pid, tid int
}

// Track returns a handle for the (pid, tid) track; name labels it in the
// viewer (the first non-empty name given a track wins). Several handles
// may share a track. Track on a nil recorder returns nil.
func (r *Recorder) Track(pid, tid int, name string) *Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if _, named := r.threads[TrackID{pid, tid}]; !named && name != "" {
		r.threads[TrackID{pid, tid}] = name
	}
	if pid >= r.nextPid {
		r.nextPid = pid + 1
	}
	r.mu.Unlock()
	return &Track{r: r, pid: pid, tid: tid}
}

// NextPid reserves the next unused process id, letting independent
// scenarios traced into one recorder claim disjoint track groups.
func (r *Recorder) NextPid() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	pid := r.nextPid
	r.nextPid++
	return pid
}

// NamePid labels a process group in the viewer (e.g. the scenario name).
func (r *Recorder) NamePid(pid int, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pidNames[pid] = name
}

// Begin opens a span. The returned span must be closed with End on the
// same goroutine for the viewer's nesting to render correctly (Chrome
// infers nesting from interval containment per track).
func (t *Track) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, start: t.r.clock()}
}

// Instant records a zero-duration marker.
func (t *Track) Instant(name string) { t.Flow(name, KindSpan, 0, nil) }

// Flow records a zero-duration marker of kind KindFlowStart or
// KindFlowEnd; the viewer draws an arrow from the start to the end
// sharing id. The wire layer records a start on the sending rank and an
// end on the receiving one.
func (t *Track) Flow(name, kind string, id uint64, args map[string]string) {
	if t == nil {
		return
	}
	t.r.put(Event{TNs: int64(t.r.clock()), Kind: kind, Rank: t.tid, Pid: t.pid, Msg: name, Flow: id, Args: args})
}

// Span is one open interval. Spans nest: a span begun while another is
// open renders as its child on the timeline.
type Span struct {
	t     *Track
	name  string
	start time.Duration
	args  map[string]string
}

// Arg annotates the span with a key/value pair shown in the viewer.
// It returns the span for chaining and is a no-op on nil.
func (s *Span) Arg(key, value string) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = make(map[string]string, 2)
	}
	s.args[key] = value
	return s
}

// End closes the span and records it. End on a nil span is a no-op; End
// must be called at most once.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.t.r.clock()
	s.t.r.put(Event{TNs: int64(s.start), Kind: KindSpan, Rank: s.t.tid, Pid: s.t.pid,
		Msg: s.name, Dur: end - s.start, Args: s.args})
}

// SortTimeline orders events by start time, longer events first at equal
// starts so parents precede their children.
func SortTimeline(evs []Event) {
	slices.SortStableFunc(evs, func(a, b Event) int { return cmp.Or(cmp.Compare(a.TNs, b.TNs), cmp.Compare(b.Dur, a.Dur)) })
}

// Timeline returns the committed events in timeline order (SortTimeline).
func (r *Recorder) Timeline() []Event {
	evs := r.Events()
	SortTimeline(evs)
	return evs
}

// Coverage reports how much of the recorded wall time is covered by at
// least one span: the union of all event intervals divided by the extent
// from the first begin to the last end. An empty recorder covers 1 (there
// is no wall time to attribute). The acceptance bar for dump traces is
// 95%. Events the ring overwrote are missing from the union, so report
// Dropped alongside it.
func (r *Recorder) Coverage() float64 {
	evs := r.Timeline()
	if len(evs) == 0 {
		return 1
	}
	lo, hi := evs[0].Start(), evs[0].End()
	var covered time.Duration
	curStart, cur := lo, hi
	for _, e := range evs[1:] {
		if e.End() > hi {
			hi = e.End()
		}
		if e.Start() > cur {
			covered += cur - curStart
			curStart, cur = e.Start(), e.End()
		} else if e.End() > cur {
			cur = e.End()
		}
	}
	covered += cur - curStart
	if hi == lo {
		return 1
	}
	return float64(covered) / float64(hi-lo)
}

// chromeEvent is the wire form of one trace-event, matching the Chrome
// trace-event format's "JSON object format": complete events (ph "X")
// with microsecond timestamps, instants (ph "i"), flow events (ph
// "s"/"f") and metadata events (ph "M") naming the tracks.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	ID   string            `json:"id,omitempty"`
	BP   string            `json:"bp,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome writes an event set as a Chrome trace-event JSON document:
// metadata events naming the process groups and thread tracks first, then
// the events in the given order (callers sort; Timeline already does). It
// is the export shared by Recorder.WriteChrome and the cluster telemetry
// plane's merged cross-rank traces, which lay out their own tracks.
func WriteChrome(w io.Writer, events []Event, pidNames map[int]string, threadNames map[TrackID]string) error {
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}

	pids := make([]int, 0, len(pidNames))
	for pid := range pidNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": pidNames[pid]},
		})
	}
	tracks := make([]TrackID, 0, len(threadNames))
	for tr := range threadNames {
		tracks = append(tracks, tr)
	}
	slices.SortFunc(tracks, func(a, b TrackID) int { return cmp.Or(cmp.Compare(a.Pid, b.Pid), cmp.Compare(a.Tid, b.Tid)) })
	for _, tr := range tracks {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: tr.Pid, Tid: tr.Tid,
			Args: map[string]string{"name": threadNames[tr]},
		})
	}

	for _, e := range events {
		ph := "X"
		if e.Dur == 0 {
			ph = "i"
		}
		ts := float64(e.TNs) / 1e3
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: e.Msg, Cat: "dump", Ph: ph, Ts: ts, Dur: float64(e.Dur.Nanoseconds()) / 1e3,
			Pid: e.Pid, Tid: e.Rank, Args: e.Args,
		})
		// Flow anchors additionally emit a Chrome flow event (ph "s"/"f"
		// sharing an id), which the viewer renders as a causal arrow
		// between tracks: the sending rank's wire-send to the receiving
		// rank's wire-recv.
		if e.Kind == KindFlowStart || e.Kind == KindFlowEnd {
			fe := chromeEvent{
				Name: e.Msg, Cat: "wire", Ph: "s", Ts: ts, Pid: e.Pid, Tid: e.Rank,
				ID: fmt.Sprintf("0x%x", e.Flow),
			}
			if e.Kind == KindFlowEnd {
				// Bind to the enclosing slice so arrows land on phase
				// spans rather than floating instants.
				fe.Ph, fe.BP = "f", "e"
			}
			doc.TraceEvents = append(doc.TraceEvents, fe)
		}
	}
	return json.NewEncoder(w).Encode(doc)
}

// WriteChrome exports the recorder as Chrome trace-event JSON. Open the
// file at chrome://tracing or https://ui.perfetto.dev. Call it once every
// recorded span has ended.
func (r *Recorder) WriteChrome(w io.Writer) error {
	r.mu.Lock()
	pidNames, threads := maps.Clone(r.pidNames), maps.Clone(r.threads)
	r.mu.Unlock()
	return WriteChrome(w, r.Timeline(), pidNames, threads)
}

// WriteFile exports the recorder to path as Chrome trace-event JSON.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
