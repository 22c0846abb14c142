package telemetry

import (
	"fmt"
	"io"
	"time"

	"dedupcr/internal/collectives"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
)

// The shared half of every cluster report: one in-band gather, one
// by-rank validation, one clock-offset estimate, one phase-spread and
// straggler reducer and one text rendering of the spread. The dump,
// restore and store reports differ only in their codec and their own
// totals.

// gather collects every rank's record at rank 0 over the group's own
// communicator and reduces them there. It is a collective call: every
// rank must enter it with its own record (SPMD, like the pipeline it
// reports on), and only rank 0 receives a non-nil result. The gather
// rides the same transport as the pipeline — no out-of-band monitoring
// channel, matching the paper's in-band measurement setup.
//
// It runs after the pipeline's completion barrier under its own phase,
// "<kind>-telemetry", so phase-scoped faults and failure bundles name
// the telemetry plane, not the pipeline's last phase. Flagged
// stragglers go into the flight recorder on rank 0: a rank that is
// repeatedly flagged before a failure is exactly what a post-mortem
// timeline should show.
func gather[T any, R interface{ flagged() []Straggler }](c collectives.Comm, rec T, cd codec[T], reduce func([]T) (R, error)) (R, error) {
	var none R
	enc, err := cd.encode(rec)
	if err != nil {
		return none, fmt.Errorf("telemetry: rank %d: %w", c.Rank(), err)
	}
	collectives.NotePhase(c, cd.kind+"-telemetry")
	raw, err := collectives.Gather(c, 0, enc)
	if err != nil {
		return none, fmt.Errorf("telemetry: rank %d %s gather: %w", c.Rank(), cd.kind, err)
	}
	if c.Rank() != 0 {
		return none, nil
	}
	recs := make([]T, len(raw))
	for r, b := range raw {
		if recs[r], err = cd.decode(b); err != nil {
			return none, fmt.Errorf("telemetry: decode %s rank %d: %w", cd.kind, r, err)
		}
		if got := cd.rank(&recs[r]); got != r {
			return none, fmt.Errorf("telemetry: %s gather slot %d carries rank %d", cd.kind, r, got)
		}
	}
	rep, err := reduce(recs)
	if err != nil {
		return none, err
	}
	for _, st := range rep.flagged() {
		obs.Logf(obs.KindStraggler, st.Rank, st.Phase, 0,
			"straggler: %s vs median %s", st.Duration, st.Median)
	}
	return rep, nil
}

// GatherCluster gathers every rank's dump metrics to rank 0 and reduces
// them into a ClusterDump (see gather).
func GatherCluster(c collectives.Comm, d metrics.Dump) (*ClusterDump, error) {
	return gather(c, d, dumpCodec, Aggregate)
}

// GatherClusterRestore gathers every rank's restore metrics to rank 0
// and reduces them into a ClusterRestore (see gather).
func GatherClusterRestore(c collectives.Comm, r metrics.Restore) (*ClusterRestore, error) {
	return gather(c, r, restoreCodec, AggregateRestore)
}

// GatherClusterStore gathers every rank's store snapshot to rank 0 and
// reduces them into a ClusterStore (see gather). Ranks on non-segment
// engines report the zero snapshot, so every rank can enter it
// unconditionally.
func GatherClusterStore(c collectives.Comm, s metrics.StoreStats) (*ClusterStore, error) {
	return gather(c, s, storeCodec, AggregateStore)
}

// inRankOrder returns recs indexed by rank. The slice may come in any
// rank order, but every rank of the group must appear exactly once.
func inRankOrder[T any](recs []T, cd codec[T]) ([]T, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("telemetry: no %s records to aggregate", cd.kind)
	}
	out := make([]T, len(recs))
	seen := make([]bool, len(recs))
	for i := range recs {
		r := cd.rank(&recs[i])
		if r < 0 || r >= len(recs) {
			return nil, fmt.Errorf("telemetry: %s rank %d out of range [0,%d)", cd.kind, r, len(recs))
		}
		if seen[r] {
			return nil, fmt.Errorf("telemetry: duplicate %s record for rank %d", cd.kind, r)
		}
		seen[r], out[r] = true, recs[i]
	}
	return out, nil
}

// clockOffsets estimates, from each rank's barrier-exit stamp, how far
// its wall clock lags the latest stamp in the group (0 for a rank without
// a stamp), and the width of the stamp window (0 unless some rank has
// one).
func clockOffsets(n int, exit func(r int) time.Time) ([]time.Duration, time.Duration) {
	var ref, earliest time.Time
	for r := 0; r < n; r++ {
		if exit(r).After(ref) {
			ref = exit(r)
		}
	}
	offsets := make([]time.Duration, n)
	for r := range offsets {
		t := exit(r)
		if t.IsZero() {
			continue
		}
		offsets[r] = ref.Sub(t)
		if earliest.IsZero() || t.Before(earliest) {
			earliest = t
		}
	}
	if earliest.IsZero() {
		return offsets, 0
	}
	return offsets, ref.Sub(earliest)
}

// phaseSpread reduces per-rank phase durations into one spread entry per
// named phase plus a final "total" entry. Every phase but "total" and
// noFlag is checked for stragglers: a rank whose time exceeds
// DefaultStragglerFactor x the median by at least DefaultMinExcess.
func phaseSpread(names []string, noFlag string, n int, dur func(r int, phase string) time.Duration) ([]PhaseStat, []Straggler) {
	var stats []PhaseStat
	var flagged []Straggler
	for _, name := range append(names[:len(names):len(names)], "total") {
		durs := make([]int64, n)
		for r := range durs {
			durs[r] = int64(dur(r, name))
		}
		ps := PhaseStat{
			Name:   name,
			Min:    time.Duration(metrics.Quantile(durs, 0)),
			Median: time.Duration(metrics.Quantile(durs, 0.5)),
			P95:    time.Duration(metrics.Quantile(durs, 0.95)),
			Max:    time.Duration(metrics.Max(durs)),
			Mean:   time.Duration(metrics.Avg(durs)),
		}
		for r, v := range durs {
			if time.Duration(v) == ps.Max {
				ps.SlowestRank = r
				break
			}
		}
		stats = append(stats, ps)
		if name == "total" || name == noFlag {
			continue
		}
		for r, v := range durs {
			d := time.Duration(v)
			if float64(d) > DefaultStragglerFactor*float64(ps.Median) && d-ps.Median >= DefaultMinExcess {
				flagged = append(flagged, Straggler{Rank: r, Phase: name, Duration: d, Median: ps.Median})
			}
		}
	}
	return stats, flagged
}

// phaseNamed returns the spread entry for the named phase, or a zero
// PhaseStat when absent.
func phaseNamed(phases []PhaseStat, name string) PhaseStat {
	for _, ps := range phases {
		if ps.Name == name {
			return ps
		}
	}
	return PhaseStat{}
}

// stragglersOf returns the stragglers flagged on one rank, in phase
// order.
func stragglersOf(all []Straggler, rank int) []Straggler {
	var out []Straggler
	for _, s := range all {
		if s.Rank == rank {
			out = append(out, s)
		}
	}
	return out
}

// writePhaseTable renders the phase-spread table, skipping phases no
// rank spent time in; width is the phase column's.
func writePhaseTable(w io.Writer, width int, phases []PhaseStat) {
	fmt.Fprintf(w, "%-*s %10s %10s %10s %10s %8s\n", width,
		"phase", "min", "median", "p95", "max", "slowest")
	for _, ps := range phases {
		if ps.Max == 0 {
			continue
		}
		fmt.Fprintf(w, "%-*s %10s %10s %10s %10s %8d\n", width,
			ps.Name, metrics.Duration(ps.Min), metrics.Duration(ps.Median),
			metrics.Duration(ps.P95), metrics.Duration(ps.Max), ps.SlowestRank)
	}
}

// writeStragglerList renders the clock spread and the straggler list
// that close every phased text report.
func writeStragglerList(w io.Writer, width int, spread time.Duration, stragglers []Straggler) {
	fmt.Fprintf(w, "clock spread: %s\n", metrics.Duration(spread))
	if len(stragglers) == 0 {
		fmt.Fprintf(w, "stragglers: none (factor %.2f, floor %s)\n",
			DefaultStragglerFactor, metrics.Duration(DefaultMinExcess))
		return
	}
	fmt.Fprintf(w, "stragglers (> %.2fx median, excess >= %s):\n",
		DefaultStragglerFactor, metrics.Duration(DefaultMinExcess))
	for _, s := range stragglers {
		fmt.Fprintf(w, "  rank %d %-*s %10s vs median %s (+%s)\n",
			s.Rank, width, s.Phase, metrics.Duration(s.Duration),
			metrics.Duration(s.Median), metrics.Duration(s.Excess()))
	}
}
