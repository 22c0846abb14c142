package telemetry

import (
	"fmt"
	"io"
	"time"

	"dedupcr/internal/obs"
)

// RankTrace is one rank's slice of a dump timeline, destined for the
// merged cross-rank trace.
type RankTrace struct {
	// Rank becomes the pid of the merged trace's track group.
	Rank int
	// Label names the track group; empty defaults to "rank N".
	Label string
	// Events are the rank's recorded spans, on the rank's own monotonic
	// clock. Each rank may carry several tid tracks (worker pools).
	Events []obs.Event
}

// anchorName is the span the alignment keys on: the dump's completion
// barrier, which every rank exits within one dissemination sweep.
const anchorName = "barrier"

// anchor returns the alignment instant of one rank's event set: the end
// of its last completion-barrier span, falling back to the last span end
// when no barrier was recorded. ok is false for an empty event set.
func anchor(evs []obs.Event) (time.Duration, bool) {
	var barrier, last time.Duration
	haveBarrier := false
	for _, e := range evs {
		if e.End() > last {
			last = e.End()
		}
		if e.Msg == anchorName && e.End() > barrier {
			barrier, haveBarrier = e.End(), true
		}
	}
	if len(evs) == 0 {
		return 0, false
	}
	if haveBarrier {
		return barrier, true
	}
	return last, true
}

// Align shifts every rank's events onto a common timeline: each rank's
// completion-barrier end is moved to coincide with the latest one in the
// group (shifts are non-negative, so no event moves before its rank's
// origin). The returned offsets (indexed like ranks) are the applied
// shifts — on ranks driven by one shared clock they measure per-rank
// barrier-exit spread; across machines they absorb both clock offset and
// barrier skew. Ranks without events keep a zero offset. The input is
// not modified.
func Align(ranks []RankTrace) ([]RankTrace, []time.Duration) {
	anchors := make([]time.Duration, len(ranks))
	have := make([]bool, len(ranks))
	var ref time.Duration
	for i, rt := range ranks {
		anchors[i], have[i] = anchor(rt.Events)
		if have[i] && anchors[i] > ref {
			ref = anchors[i]
		}
	}
	out := make([]RankTrace, len(ranks))
	offsets := make([]time.Duration, len(ranks))
	for i, rt := range ranks {
		out[i] = RankTrace{Rank: rt.Rank, Label: rt.Label}
		if !have[i] {
			continue
		}
		offsets[i] = ref - anchors[i]
		evs := make([]obs.Event, len(rt.Events))
		for j, e := range rt.Events {
			e.TNs += int64(offsets[i])
			e.Pid = rt.Rank
			evs[j] = e
		}
		out[i].Events = evs
	}
	return out, offsets
}

// MergeTraces writes one Chrome trace holding every rank's events on a
// clock-aligned common timeline: one pid (track group) per rank, the
// rank's own tids preserved underneath. When cd is non-nil, each flagged
// straggler adds an instant marker ("straggler put" etc.) at the end of
// the slowest matching span of that rank, so flagged phases stand out on
// the timeline.
func MergeTraces(w io.Writer, ranks []RankTrace, cd *ClusterDump) error {
	aligned, _ := Align(ranks)

	pidNames := make(map[int]string, len(aligned))
	threadNames := make(map[obs.TrackID]string)
	var merged []obs.Event
	for _, rt := range aligned {
		label := rt.Label
		if label == "" {
			label = fmt.Sprintf("rank %d", rt.Rank)
		}
		pidNames[rt.Rank] = label
		tids := make(map[int]bool)
		for _, e := range rt.Events {
			tids[e.Rank] = true
		}
		for tid := range tids {
			name := label
			if len(tids) > 1 {
				name = fmt.Sprintf("%s tid %d", label, tid)
			}
			threadNames[obs.TrackID{Pid: rt.Rank, Tid: tid}] = name
		}
		merged = append(merged, rt.Events...)

		if cd == nil {
			continue
		}
		for _, s := range cd.StragglersFor(rt.Rank) {
			if ev, ok := slowestSpan(rt.Events, s.Phase); ok {
				merged = append(merged, obs.Event{
					Kind: obs.KindSpan, Msg: "straggler " + s.Phase, Pid: rt.Rank, Rank: ev.Rank,
					TNs: int64(ev.End()),
					Args: map[string]string{
						"phase":  s.Phase,
						"dur":    s.Duration.String(),
						"median": s.Median.String(),
						"excess": s.Excess().String(),
					},
				})
			}
		}
	}

	pruneUnmatchedFlows(merged)
	obs.SortTimeline(merged)
	return obs.WriteChrome(w, merged, pidNames, threadNames)
}

// pruneUnmatchedFlows strips the flow linkage from wire events whose
// counterpart did not make it into the merged set (the peer's trace was
// dropped, truncated, or the rank died mid-frame): the causal arrows the
// merged trace draws must connect a send to its receive, never dangle.
// The events themselves stay, as plain instants.
func pruneUnmatchedFlows(evs []obs.Event) {
	starts := make(map[uint64]int)
	finishes := make(map[uint64]int)
	for _, e := range evs {
		switch e.Kind {
		case obs.KindFlowStart:
			starts[e.Flow]++
		case obs.KindFlowEnd:
			finishes[e.Flow]++
		}
	}
	for i := range evs {
		e := &evs[i]
		if (e.Kind == obs.KindFlowStart || e.Kind == obs.KindFlowEnd) && (starts[e.Flow] == 0 || finishes[e.Flow] == 0) {
			e.Kind, e.Flow = obs.KindSpan, 0
		}
	}
}

// slowestSpan finds the longest span with the given name.
func slowestSpan(evs []obs.Event, name string) (obs.Event, bool) {
	var best obs.Event
	found := false
	for _, e := range evs {
		if e.Msg == name && (!found || e.Dur > best.Dur) {
			best, found = e, true
		}
	}
	return best, found
}

// SplitByTid partitions one shared-trace event set into per-rank traces,
// treating the tid of each event as the rank — the layout in-process
// simulations record (one trace ring, tid = rank). It is the bridge from
// experiments.RunScenario's shared trace to MergeTraces.
func SplitByTid(evs []obs.Event) []RankTrace {
	byTid := make(map[int][]obs.Event)
	maxTid := -1
	for _, e := range evs {
		byTid[e.Rank] = append(byTid[e.Rank], e)
		if e.Rank > maxTid {
			maxTid = e.Rank
		}
	}
	out := make([]RankTrace, maxTid+1)
	for tid := 0; tid <= maxTid; tid++ {
		out[tid] = RankTrace{Rank: tid, Events: byTid[tid]}
	}
	return out
}
