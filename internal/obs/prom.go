package obs

import (
	"io"

	"dedupcr/internal/metrics"
)

// WritePrometheus emits the flight-recorder counters for rank in
// Prometheus text exposition format.
func (r *Recorder) WritePrometheus(w io.Writer, rank int) {
	p := metrics.RankWriter(w, rank)
	p.Counter("dedupcr_obs_events_total", "Flight-recorder events recorded since process start.", r.Total())
	p.Counter("dedupcr_obs_dropped_total", "Flight-recorder events overwritten by ring wrap.", r.Dropped())
}
