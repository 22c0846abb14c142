package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dedupcr/internal/obs"
)

// fakeClock is a deterministic monotonic clock advanced by the test.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.now += d
	f.mu.Unlock()
}

func (f *fakeClock) read() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func TestNestedSpans(t *testing.T) {
	clk := &fakeClock{}
	tr := obs.NewWithClock(16, clk.read)
	rec := tr.Track(0, 0, "rank 0")

	outer := rec.Begin("dump")
	clk.advance(time.Millisecond)
	inner := rec.Begin("chunking")
	clk.advance(2 * time.Millisecond)
	inner.End()
	clk.advance(time.Millisecond)
	outer.End()

	evs := tr.Timeline()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Sorted by start: outer first.
	if evs[0].Msg != "dump" || evs[1].Msg != "chunking" {
		t.Fatalf("order = %q, %q", evs[0].Msg, evs[1].Msg)
	}
	if evs[0].Start() != 0 || evs[0].Dur != 4*time.Millisecond {
		t.Errorf("outer = [%v +%v], want [0s +4ms]", evs[0].Start(), evs[0].Dur)
	}
	if evs[1].Start() != time.Millisecond || evs[1].Dur != 2*time.Millisecond {
		t.Errorf("inner = [%v +%v], want [1ms +2ms]", evs[1].Start(), evs[1].Dur)
	}
	// The child interval must be contained in the parent's (what the
	// Chrome viewer uses to infer nesting).
	if evs[1].Start() < evs[0].Start() || evs[1].End() > evs[0].End() {
		t.Errorf("child [%v,%v] escapes parent [%v,%v]",
			evs[1].Start(), evs[1].End(), evs[0].Start(), evs[0].End())
	}
	for _, e := range evs {
		if e.Kind != obs.KindSpan || e.Rank != 0 {
			t.Errorf("span recorded as %+v", e)
		}
	}
}

// TestConcurrentRanks records from one goroutine per track into one ring
// and checks every span lands on its own track.
func TestConcurrentRanks(t *testing.T) {
	tr := obs.New(1 << 13)
	const ranks, spansPerRank = 16, 300
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		rec := tr.Track(0, r, fmt.Sprintf("rank %d", r))
		wg.Add(1)
		go func(rec *obs.Track) {
			defer wg.Done()
			for i := 0; i < spansPerRank; i++ {
				rec.Begin("phase").End()
			}
		}(rec)
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != ranks*spansPerRank || tr.Dropped() != 0 {
		t.Fatalf("got %d events (%d dropped), want %d", len(evs), tr.Dropped(), ranks*spansPerRank)
	}
	byTid := make(map[int]int)
	for _, e := range evs {
		byTid[e.Rank]++
	}
	for r := 0; r < ranks; r++ {
		if byTid[r] != spansPerRank {
			t.Errorf("tid %d has %d events, want %d", r, byTid[r], spansPerRank)
		}
	}
}

func TestNilTrackIsNoop(t *testing.T) {
	var nilRec *obs.Recorder
	rec := nilRec.Track(0, 0, "rank 0")
	if rec != nil {
		t.Fatal("nil recorder returned a live track")
	}
	sp := rec.Begin("anything")
	sp.Arg("k", "v")
	sp.End()
	rec.Instant("marker")
	rec.Flow("wire-send", obs.KindFlowStart, 1, nil)
	// Reaching here without a panic is the assertion.
}

func TestChromeJSONGolden(t *testing.T) {
	clk := &fakeClock{}
	tr := obs.NewWithClock(16, clk.read)
	tr.NamePid(0, "HPCCG N=4")
	rec := tr.Track(0, 3, "rank 3")

	outer := rec.Begin("dump").Arg("approach", "coll-dedup")
	clk.advance(1500 * time.Microsecond)
	in := rec.Begin("reduction")
	clk.advance(500 * time.Microsecond)
	in.End()
	outer.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(buf.String())
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"HPCCG N=4"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":3,"args":{"name":"rank 3"}},` +
		`{"name":"dump","cat":"dump","ph":"X","ts":0,"dur":2000,"pid":0,"tid":3,"args":{"approach":"coll-dedup"}},` +
		`{"name":"reduction","cat":"dump","ph":"X","ts":1500,"dur":500,"pid":0,"tid":3}` +
		`],"displayTimeUnit":"ms"}`
	if got != want {
		t.Errorf("golden mismatch\n got: %s\nwant: %s", got, want)
	}

	// The output must round-trip as valid trace-event JSON.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Errorf("got %d traceEvents, want 4", len(doc.TraceEvents))
	}
}

func TestCoverage(t *testing.T) {
	clk := &fakeClock{}
	tr := obs.NewWithClock(16, clk.read)
	rec := tr.Track(0, 0, "rank 0")

	// [0,4ms] covered, [4,5ms] gap, [5,6ms] covered => 5/6 coverage.
	a := rec.Begin("a")
	clk.advance(2 * time.Millisecond)
	b := rec.Begin("b") // overlaps a: union must not double count
	clk.advance(2 * time.Millisecond)
	a.End()
	b.End()
	clk.advance(time.Millisecond)
	c := rec.Begin("c")
	clk.advance(time.Millisecond)
	c.End()

	got := tr.Coverage()
	want := 5.0 / 6.0
	if diff := got - want; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("Coverage() = %v, want %v", got, want)
	}

	if c := obs.New(16).Coverage(); c != 1 {
		t.Errorf("empty trace coverage = %v, want 1", c)
	}
}

func TestNextPid(t *testing.T) {
	tr := obs.New(16)
	if p := tr.NextPid(); p != 0 {
		t.Errorf("first pid = %d, want 0", p)
	}
	tr.Track(5, 0, "r")
	if p := tr.NextPid(); p != 6 {
		t.Errorf("pid after Track(5,...) = %d, want 6", p)
	}
}

// TestInstantRendersAsInstant pins the Chrome export of zero-duration
// events to instant ("i") phase records.
func TestInstantRendersAsInstant(t *testing.T) {
	clk := &fakeClock{}
	tr := obs.NewWithClock(16, clk.read)
	tr.Track(0, 0, "rank 0").Instant("straggler")
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph":"i"`) {
		t.Errorf("instant not exported with ph \"i\": %s", buf.String())
	}
}

func TestFlowChromeExport(t *testing.T) {
	var tick time.Duration
	tr := obs.NewWithClock(16, func() time.Duration { tick += time.Millisecond; return tick })
	tr.Track(0, 0, "rank 0").Flow("wire-send", obs.KindFlowStart, 0xABC, map[string]string{"to": "1"})
	tr.Track(0, 1, "rank 1").Flow("wire-recv", obs.KindFlowEnd, 0xABC, map[string]string{"from": "0"})

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Cat  string `json:"cat"`
			ID   string `json:"id"`
			BP   string `json:"bp"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var flowStart, flowFinish bool
	for _, e := range doc.TraceEvents {
		if e.Cat != "wire" {
			continue
		}
		switch e.Ph {
		case "s":
			flowStart = true
			if e.ID != "0xabc" || e.Tid != 0 {
				t.Errorf("flow start wrong: %+v", e)
			}
			if e.BP != "" {
				t.Errorf("flow start must not carry bp: %+v", e)
			}
		case "f":
			flowFinish = true
			if e.ID != "0xabc" || e.Tid != 1 || e.BP != "e" {
				t.Errorf("flow finish wrong: %+v", e)
			}
		}
	}
	if !flowStart || !flowFinish {
		t.Fatalf("flow events missing from export (start %v finish %v):\n%s",
			flowStart, flowFinish, buf.String())
	}
	// The plain instants are still exported alongside the flow events.
	if !strings.Contains(buf.String(), `"wire-send"`) {
		t.Fatal("wire-send instant missing")
	}
}
