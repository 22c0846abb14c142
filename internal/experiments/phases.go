package experiments

import (
	"fmt"
	"time"

	"dedupcr/internal/core"
	"dedupcr/internal/metrics"
)

// PhasesBreakdown is the observability experiment: it runs one HPCCG
// checkpoint under each approach and prints the measured per-phase wall
// time of the dump pipeline, averaged over ranks — the table the tracing
// work makes possible. The "sum of phases" row against "measured total"
// shows how much of the dump the instrumentation attributes (the
// remainder is bookkeeping between phases).
func PhasesBreakdown(cfg Config) (*Table, error) {
	n := 32
	if cfg.Quick {
		n = 8
	}
	w := HPCCG()
	approaches := []core.Approach{core.NoDedup, core.LocalDedup, core.CollDedup}

	t := &Table{
		ID:     "phases",
		Title:  "Per-phase wall time of one checkpoint (rank mean)",
		Header: []string{"phase"},
	}
	cols := make([]metrics.Phases, 0, len(approaches))
	var putQ [][3]int64
	for _, ap := range approaches {
		t.Header = append(t.Header, ap.String())
		res, err := RunScenario(cfg, w, n, 3, ap, ap == core.CollDedup)
		if err != nil {
			return nil, err
		}
		dumps := res.Dumps[len(res.Dumps)-1]
		var mean metrics.Phases
		var lat []int64
		for _, d := range dumps {
			mean.Add(d.Phases)
			if d.PutLatency != nil {
				lat = append(lat, d.PutLatency.Quantile(0.5), d.PutLatency.Quantile(0.99))
			}
		}
		mean = mean.Scale(1.0 / float64(len(dumps)))
		cols = append(cols, mean)
		var p50, p99 int64
		for i := 0; i < len(lat); i += 2 {
			p50 += lat[i]
			p99 += lat[i+1]
		}
		if k := int64(len(lat) / 2); k > 0 {
			p50 /= k
			p99 /= k
		}
		putQ = append(putQ, [3]int64{p50, p99, int64(len(lat) / 2)})
	}

	for _, name := range metrics.PhaseNames {
		row := []string{name}
		for _, p := range cols {
			row = append(row, metrics.Duration(p.ByName(name)))
		}
		t.Rows = append(t.Rows, row)
	}
	sumRow := []string{"sum of phases"}
	totalRow := []string{"measured total"}
	attrRow := []string{"attributed"}
	for _, p := range cols {
		sumRow = append(sumRow, metrics.Duration(p.Sum()))
		totalRow = append(totalRow, metrics.Duration(p.Total))
		attrRow = append(attrRow, fmt.Sprintf("%.1f%%", 100*float64(p.Sum())/float64(p.Total)))
	}
	t.Rows = append(t.Rows, sumRow, totalRow, attrRow)

	for i, ap := range approaches {
		if putQ[i][2] > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s put latency per gathered put (rank mean): p50 %s, p99 %s",
				ap, metrics.Duration(time.Duration(putQ[i][0])), metrics.Duration(time.Duration(putQ[i][1]))))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("HPCCG, N=%d, K=3; wall time of the scaled mini-app run, not simulated Shamrock seconds", n),
		"capture a span-level view with `dumpbench -trace out.json` and open it in Perfetto")
	return t, nil
}
