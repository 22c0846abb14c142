package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"dedupcr/internal/obs"
)

// rankEvents fabricates one rank's dump timeline on a clock skewed by
// skew: a put span, the completion barrier and an enclosing dump span.
func rankEvents(rank int, skew time.Duration) []obs.Event {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	return []obs.Event{
		{Msg: "dump", Pid: 1, Rank: rank, TNs: int64(skew), Dur: ms(100)},
		{Msg: "put", Pid: 1, Rank: rank, TNs: int64(skew + ms(10)), Dur: ms(50)},
		{Msg: "barrier", Pid: 1, Rank: rank, TNs: int64(skew + ms(90)), Dur: ms(10)},
	}
}

func TestAlignShiftsBarriersTogether(t *testing.T) {
	ranks := []RankTrace{
		{Rank: 0, Events: rankEvents(0, 0)},
		{Rank: 1, Events: rankEvents(1, 7*time.Millisecond)},
		{Rank: 2, Events: rankEvents(2, 3*time.Millisecond)},
	}
	aligned, offsets := Align(ranks)
	if offsets[1] != 0 {
		t.Errorf("latest rank shifted by %v, want 0", offsets[1])
	}
	if offsets[0] != 7*time.Millisecond || offsets[2] != 4*time.Millisecond {
		t.Errorf("offsets = %v", offsets)
	}
	var ends []time.Duration
	for _, rt := range aligned {
		end, ok := anchor(rt.Events)
		if !ok {
			t.Fatalf("rank %d lost its events", rt.Rank)
		}
		ends = append(ends, end)
	}
	for i := 1; i < len(ends); i++ {
		if ends[i] != ends[0] {
			t.Fatalf("aligned barrier ends diverge: %v", ends)
		}
	}
	// Pid rewritten to the rank; relative structure preserved.
	for _, rt := range aligned {
		for _, e := range rt.Events {
			if e.Pid != rt.Rank {
				t.Errorf("rank %d event kept pid %d", rt.Rank, e.Pid)
			}
		}
		if d := rt.Events[1].Start() - rt.Events[0].Start(); d != 10*time.Millisecond {
			t.Errorf("rank %d intra-rank spacing changed: %v", rt.Rank, d)
		}
	}
	// Input untouched.
	if ranks[0].Events[0].Pid != 1 || ranks[0].Events[0].TNs != 0 {
		t.Error("Align modified its input")
	}
}

func TestAlignFallsBackWithoutBarrier(t *testing.T) {
	ranks := []RankTrace{
		{Rank: 0, Events: []obs.Event{{Msg: "put", Rank: 0, Dur: time.Millisecond}}},
		{Rank: 1, Events: []obs.Event{{Msg: "put", Rank: 1, Dur: 5 * time.Millisecond}}},
		{Rank: 2}, // no events at all
	}
	aligned, offsets := Align(ranks)
	if offsets[0] != 4*time.Millisecond || offsets[1] != 0 || offsets[2] != 0 {
		t.Errorf("fallback offsets = %v", offsets)
	}
	if len(aligned[2].Events) != 0 {
		t.Errorf("empty rank grew events: %+v", aligned[2].Events)
	}
}

// chromeDoc mirrors the trace-event JSON for assertions.
type chromeDoc struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

func TestMergeTracesOnePidPerRankWithStragglerMarkers(t *testing.T) {
	ranks := []RankTrace{
		{Rank: 0, Events: rankEvents(0, 0)},
		{Rank: 1, Events: rankEvents(1, 5*time.Millisecond)},
	}
	cd := &ClusterDump{
		Ranks: 2,
		Stragglers: []Straggler{
			{Rank: 1, Phase: "put", Duration: 50 * time.Millisecond, Median: 20 * time.Millisecond},
		},
	}
	var buf bytes.Buffer
	if err := MergeTraces(&buf, ranks, cd); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}

	pids := make(map[int]bool)
	names := make(map[int]string)
	var stragglerMarks int
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			if e.Name == "process_name" {
				names[e.Pid] = e.Args["name"]
			}
			continue
		}
		pids[e.Pid] = true
		if e.Name == "straggler put" {
			stragglerMarks++
			if e.Ph != "i" || e.Pid != 1 {
				t.Errorf("straggler marker malformed: %+v", e)
			}
			if e.Args["excess"] != "30ms" {
				t.Errorf("straggler marker args: %v", e.Args)
			}
		}
	}
	if len(pids) != 2 || !pids[0] || !pids[1] {
		t.Fatalf("merged trace pids = %v, want exactly {0,1}", pids)
	}
	if names[0] != "rank 0" || names[1] != "rank 1" {
		t.Errorf("process names = %v", names)
	}
	if stragglerMarks != 1 {
		t.Errorf("straggler markers = %d, want 1", stragglerMarks)
	}
}

func TestSplitByTid(t *testing.T) {
	evs := []obs.Event{
		{Msg: "a", Rank: 0, Dur: 1},
		{Msg: "b", Rank: 2, TNs: 1, Dur: 1},
		{Msg: "c", Rank: 0, TNs: 2, Dur: 1},
	}
	ranks := SplitByTid(evs)
	if len(ranks) != 3 {
		t.Fatalf("got %d ranks, want 3 (tid 1 empty but present)", len(ranks))
	}
	if len(ranks[0].Events) != 2 || len(ranks[1].Events) != 0 || len(ranks[2].Events) != 1 {
		t.Errorf("split sizes: %d/%d/%d", len(ranks[0].Events), len(ranks[1].Events), len(ranks[2].Events))
	}
	if ranks[2].Rank != 2 {
		t.Errorf("rank field = %d, want 2", ranks[2].Rank)
	}
}

// TestMergeTracesFlowPruning checks the causal-edge hygiene of the merged
// trace: matched wire send/receive pairs keep their flow linkage across
// ranks, while a send whose receive never made it into the gathered
// traces is stripped of its flow id (no dangling arrows).
func TestMergeTracesFlowPruning(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	ranks := []RankTrace{
		{Rank: 0, Events: []obs.Event{
			{Msg: "barrier", Rank: 0, TNs: int64(ms(90)), Dur: ms(10)},
			{Msg: "wire-send", Rank: 0, TNs: int64(ms(10)), Flow: 0x11, Kind: obs.KindFlowStart},
			{Msg: "wire-send", Rank: 0, TNs: int64(ms(20)), Flow: 0x22, Kind: obs.KindFlowStart},
		}},
		{Rank: 1, Events: []obs.Event{
			{Msg: "barrier", Rank: 0, TNs: int64(ms(90)), Dur: ms(10)},
			// Only flow 0x11 has its receive side; 0x22's receiver died.
			{Msg: "wire-recv", Rank: 0, TNs: int64(ms(15)), Flow: 0x11, Kind: obs.KindFlowEnd},
		}},
	}
	var buf bytes.Buffer
	if err := MergeTraces(&buf, ranks, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			ID string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var starts, finishes []string
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "s":
			starts = append(starts, e.ID)
		case "f":
			finishes = append(finishes, e.ID)
		}
	}
	if len(starts) != 1 || starts[0] != "0x11" {
		t.Fatalf("flow starts = %v, want exactly [0x11] (0x22 is unmatched)", starts)
	}
	if len(finishes) != 1 || finishes[0] != "0x11" {
		t.Fatalf("flow finishes = %v, want exactly [0x11]", finishes)
	}
}

// TestMergeTracesGolden pins the merged Chrome trace byte for byte: two
// clock-skewed ranks, a straggler marker on rank 1's put, one matched
// wire flow and one whose receive side is missing (pruned to a plain
// instant).
func TestMergeTracesGolden(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	r0 := append(rankEvents(0, 0),
		obs.Event{Msg: "wire-send", Rank: 0, TNs: int64(ms(20)), Flow: 0x11, Kind: obs.KindFlowStart,
			Args: map[string]string{"to": "1", "round": "2"}},
		obs.Event{Msg: "wire-send", Rank: 0, TNs: int64(ms(30)), Flow: 0x22, Kind: obs.KindFlowStart,
			Args: map[string]string{"to": "1", "round": "3"}})
	r1 := append(rankEvents(1, ms(5)),
		obs.Event{Msg: "wire-recv", Rank: 1, TNs: int64(ms(26)), Flow: 0x11, Kind: obs.KindFlowEnd,
			Args: map[string]string{"from": "0", "round": "2", "job": "7/0"}})
	ranks := []RankTrace{{Rank: 0, Events: r0}, {Rank: 1, Label: "node b", Events: r1}}
	cd := &ClusterDump{Ranks: 2, Stragglers: []Straggler{
		{Rank: 1, Phase: "put", Duration: 50 * time.Millisecond, Median: 20 * time.Millisecond},
	}}
	var buf bytes.Buffer
	if err := MergeTraces(&buf, ranks, cd); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"rank 0"}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"node b"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"rank 0"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"node b"}},` +
		`{"name":"dump","cat":"dump","ph":"X","ts":5000,"dur":100000,"pid":0,"tid":0},` +
		`{"name":"dump","cat":"dump","ph":"X","ts":5000,"dur":100000,"pid":1,"tid":1},` +
		`{"name":"put","cat":"dump","ph":"X","ts":15000,"dur":50000,"pid":0,"tid":0},` +
		`{"name":"put","cat":"dump","ph":"X","ts":15000,"dur":50000,"pid":1,"tid":1},` +
		`{"name":"wire-send","cat":"dump","ph":"i","ts":25000,"pid":0,"tid":0,"args":{"round":"2","to":"1"}},` +
		`{"name":"wire-send","cat":"wire","ph":"s","ts":25000,"pid":0,"tid":0,"id":"0x11"},` +
		`{"name":"wire-recv","cat":"dump","ph":"i","ts":26000,"pid":1,"tid":1,"args":{"from":"0","job":"7/0","round":"2"}},` +
		`{"name":"wire-recv","cat":"wire","ph":"f","ts":26000,"pid":1,"tid":1,"id":"0x11","bp":"e"},` +
		`{"name":"wire-send","cat":"dump","ph":"i","ts":35000,"pid":0,"tid":0,"args":{"round":"3","to":"1"}},` +
		`{"name":"straggler put","cat":"dump","ph":"i","ts":65000,"pid":1,"tid":1,"args":{"dur":"50ms","excess":"30ms","median":"20ms","phase":"put"}},` +
		`{"name":"barrier","cat":"dump","ph":"X","ts":95000,"dur":10000,"pid":0,"tid":0},` +
		`{"name":"barrier","cat":"dump","ph":"X","ts":95000,"dur":10000,"pid":1,"tid":1}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("merged trace differs from the golden string\n got: %s\nwant: %s", got, want)
	}
}
