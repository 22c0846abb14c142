// Package telemetry is the cluster-wide observability plane of the
// collective dump and restore pipelines: it gathers every rank's
// metrics.Dump, metrics.Restore or metrics.StoreStats to rank 0 over the
// group's own collectives (in-band, no side channel), reduces them into
// a ClusterDump, ClusterRestore or ClusterStore — per-phase spread
// statistics, traffic totals, load-imbalance coefficients and straggler
// flags — merges per-rank traces onto one clock-aligned timeline, and
// exposes the result as a Prometheus exposition, a text table and Chrome
// trace JSON. The three records share one codec mechanism (codec.go) and
// one gather and reducer (gather.go); each contributes only its layout
// and its own totals.
//
// Clock model: every rank stamps the wall-clock instant it leaves the
// dump's completion barrier (metrics.Dump.BarrierExit). A dissemination
// barrier releases all ranks within ceil(log2 N) message latencies of
// each other, so the spread of these stamps bounds the inter-node clock
// offsets to within that window — microseconds in-process, a network
// round trip across machines. Offsets are reported relative to the
// latest stamp; merged traces are aligned on the completion-barrier span
// instead, which carries the same bound on monotonic clocks.
package telemetry

import (
	"fmt"
	"io"
	"time"

	"dedupcr/internal/metrics"
)

// Straggler thresholds: a rank is flagged for a phase when its phase
// time exceeds DefaultStragglerFactor x the cluster median by at least
// DefaultMinExcess. The millisecond floor keeps microsecond phases from
// tipping a rank into "straggler" on ordinary scheduling jitter.
const (
	DefaultStragglerFactor = 2.0
	DefaultMinExcess       = time.Millisecond
)

// PhaseStat is the cross-rank spread of one pipeline phase.
type PhaseStat struct {
	// Name is the phase label (one of metrics.PhaseNames, or "total").
	Name string
	// Min/Median/P95/Max summarize the per-rank durations
	// (nearest-rank quantiles).
	Min, Median, P95, Max time.Duration
	// Mean is the arithmetic mean of the per-rank durations.
	Mean time.Duration
	// SlowestRank is the rank with the maximum duration (lowest rank
	// wins ties).
	SlowestRank int
}

// RankSummary is one rank's line in the cluster view.
type RankSummary struct {
	Rank int
	// SentBytes/RecvBytes are the rank's replication traffic.
	SentBytes, RecvBytes int64
	// StoredBytes is the rank's storage load (own + designated +
	// received), the designation-load proxy of the imbalance
	// coefficient.
	StoredBytes int64
	// Total is the rank's end-to-end dump time.
	Total time.Duration
	// ClockOffset estimates how far this rank's wall clock lags the
	// latest barrier-exit stamp in the group: add it to the rank's local
	// wall times to land on the common timeline. Zero when the rank had
	// no stamp.
	ClockOffset time.Duration
}

// Straggler records one flagged (rank, phase) pair: the rank's phase
// time exceeded DefaultStragglerFactor x the cluster median by at least
// DefaultMinExcess.
type Straggler struct {
	Rank     int
	Phase    string
	Duration time.Duration
	// Median is the cluster median the duration was compared against.
	Median time.Duration
}

// Excess is how far the straggler overshot the cluster median.
func (s Straggler) Excess() time.Duration { return s.Duration - s.Median }

// ClusterDump is rank 0's reduced view of one collective dump across the
// whole group.
type ClusterDump struct {
	// Ranks is the group size the dump was aggregated over.
	Ranks int
	// Phases holds one spread entry per pipeline phase (in
	// metrics.PhaseNames order) plus a final "total" entry.
	Phases []PhaseStat
	// TotalSentBytes/TotalRecvBytes sum replication traffic over ranks.
	TotalSentBytes, TotalRecvBytes int64
	// TotalStoredBytes sums storage load over ranks.
	TotalStoredBytes int64
	// PerRank has one summary per rank, indexed by rank.
	PerRank []RankSummary
	// DesignationImbalance is max/mean of per-rank stored bytes: 1.0 is
	// perfectly balanced designation, paper Figure 4 territory. 0 when
	// no rank stored anything.
	DesignationImbalance float64
	// SendImbalance is max/mean of per-rank sent bytes. 0 when no rank
	// sent anything.
	SendImbalance float64
	// Stragglers lists every flagged (rank, phase) pair, ordered by
	// phase pipeline position then rank.
	Stragglers []Straggler
	// ClockSpread is the width of the barrier-exit stamp window: an
	// upper bound on the pairwise clock offset error. Zero when fewer
	// than two ranks carried stamps.
	ClockSpread time.Duration
}

// imbalance returns max/mean of v, or 0 when the mean is 0.
func imbalance(v []int64) float64 {
	m := metrics.Avg(v)
	if m == 0 {
		return 0
	}
	return float64(metrics.Max(v)) / m
}

// Aggregate reduces per-rank dump metrics into a ClusterDump. It is a
// pure function: the in-band gather path (GatherCluster) and the
// experiment harness both call it, so simulated and live clusters report
// through identical code. The dumps slice may be in any rank order;
// every rank must appear exactly once.
func Aggregate(dumps []metrics.Dump) (*ClusterDump, error) {
	dumps, err := inRankOrder(dumps, dumpCodec)
	if err != nil {
		return nil, err
	}
	n := len(dumps)
	cd := &ClusterDump{Ranks: n, PerRank: make([]RankSummary, n)}
	offsets, spread := clockOffsets(n, func(r int) time.Time { return dumps[r].BarrierExit })
	cd.ClockSpread = spread
	sent, stored := make([]int64, n), make([]int64, n)
	for r, d := range dumps {
		cd.PerRank[r] = RankSummary{
			Rank: r, SentBytes: d.SentBytes, RecvBytes: d.RecvBytes,
			StoredBytes: d.StoredBytes, Total: d.Phases.Total, ClockOffset: offsets[r],
		}
		cd.TotalSentBytes += d.SentBytes
		cd.TotalRecvBytes += d.RecvBytes
		cd.TotalStoredBytes += d.StoredBytes
		sent[r], stored[r] = d.SentBytes, d.StoredBytes
	}
	cd.DesignationImbalance = imbalance(stored)
	cd.SendImbalance = imbalance(sent)
	cd.Phases, cd.Stragglers = phaseSpread(metrics.PhaseNames, "", n, func(r int, phase string) time.Duration {
		if phase == "total" {
			return dumps[r].Phases.Total
		}
		return dumps[r].Phases.ByName(phase)
	})
	return cd, nil
}

// StragglersFor returns the flagged stragglers of one rank, in phase
// order.
func (cd *ClusterDump) StragglersFor(rank int) []Straggler { return stragglersOf(cd.Stragglers, rank) }

// Phase returns the spread entry for the named phase, or a zero
// PhaseStat when absent.
func (cd *ClusterDump) Phase(name string) PhaseStat { return phaseNamed(cd.Phases, name) }

func (cd *ClusterDump) flagged() []Straggler { return cd.Stragglers }

// WriteText renders the cluster dump as the fixed-width table dedupstat
// and the experiment harness print: the phase-spread table, traffic and
// imbalance lines, clock spread and the straggler list.
func (cd *ClusterDump) WriteText(w io.Writer) {
	fmt.Fprintf(w, "cluster dump: %d ranks\n\n", cd.Ranks)
	writePhaseTable(w, 14, cd.Phases)
	fmt.Fprintf(w, "\ntraffic: sent %s, recv %s, stored %s\n",
		metrics.Bytes(cd.TotalSentBytes), metrics.Bytes(cd.TotalRecvBytes),
		metrics.Bytes(cd.TotalStoredBytes))
	fmt.Fprintf(w, "imbalance (max/mean): designation %.3f, send %.3f\n",
		cd.DesignationImbalance, cd.SendImbalance)
	writeStragglerList(w, 14, cd.ClockSpread, cd.Stragglers)
}
