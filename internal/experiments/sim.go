package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"dedupcr/internal/apps/cm1"
	"dedupcr/internal/apps/hpccg"
	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/metrics"
	"dedupcr/internal/netsim"
	"dedupcr/internal/obs"
	"dedupcr/internal/storage"
	"dedupcr/internal/telemetry"
)

// stepper is the slice of an application the harness drives: advance and
// serialize.
type stepper interface {
	Step() float64
	CheckpointImage() []byte
}

// computePhase steps app through one compute phase of w and serializes
// its checkpoint image, each under its own span, so a trace accounts for
// the whole stretch before the dump.
func computePhase(rec *obs.Track, w Workload, app stepper) []byte {
	sp := rec.Begin("compute").Arg("steps", fmt.Sprint(w.StepsPerPhase))
	for s := 0; s < w.StepsPerPhase; s++ {
		app.Step()
	}
	sp.End()
	sp = rec.Begin("checkpoint-image")
	defer sp.End()
	return app.CheckpointImage()
}

// privateTraceSize is the ring capacity of the trace a telemetry
// scenario records into when Config.Trace is unset (its merged trace
// needs the spans either way); one records under 900 events.
const privateTraceSize = 1 << 14

// scenarioTraces slices the events of track group pid out of tr, one
// RankTrace per tid (rank). since is tr.Total() from before the scenario
// ran: when the ring has since wrapped over any of the scenario's events,
// the slice would silently lose spans and flows, so it is an error.
func scenarioTraces(tr *obs.Recorder, pid int, since uint64) ([]telemetry.RankTrace, error) {
	if d := tr.Dropped(); d > since {
		return nil, fmt.Errorf("trace ring wrapped: %d events of pid %d lost", d-since, pid)
	}
	evs := slices.DeleteFunc(tr.Timeline(), func(e obs.Event) bool { return e.Pid != pid })
	return telemetry.SplitByTid(evs), nil
}

// Workload describes one of the paper's two applications in scaled form.
type Workload struct {
	Name string
	// New builds one rank's application instance.
	New func(rank, nprocs int) stepper
	// StepsPerPhase is how many solver steps run before each checkpoint
	// (scaled from the paper's iteration counts; the checkpoint image's
	// redundancy is stationary after a few steps).
	StepsPerPhase int
	// Checkpoints is how many collective dumps one run takes (paper:
	// HPCCG one at iteration 100 of 127, CM1 one every 30 of 70 steps).
	Checkpoints int
	// ChunkSize is the scaled page size (see the app packages on why
	// pages scale with the sub-block).
	ChunkSize int
	// F is the scaled fingerprint threshold (paper: 2^17; scaled to keep
	// F / pages-per-rank at the paper's ratio ≈ 1/3).
	F int
	// Scale maps scaled bytes back to testbed bytes for netsim (paper
	// dataset size / mini-app dataset size).
	Scale float64
	// Baseline is the paper-reported completion time without
	// checkpointing, by process count; other counts are interpolated.
	// It parameterizes the application's compute duration, which our
	// model does not predict — the paper's claims are about the
	// checkpointing overhead on top of it.
	Baseline map[int]float64
}

// HPCCG is the paper's first workload: 150³ sub-blocks (~1.5 GB/rank),
// checkpoint at iteration 100 of 127, scaled to 16³ (~1.3 MB/rank).
func HPCCG() Workload {
	return Workload{
		Name: "HPCCG",
		New: func(rank, nprocs int) stepper {
			return hpccg.New(rank, nprocs, hpccg.Config{NX: 16, NY: 16, NZ: 16})
		},
		StepsPerPhase: 8,
		Checkpoints:   1,
		ChunkSize:     256,
		F:             1 << 11,
		Scale:         1170, // 1.5 GB / ~1.31 MB
		Baseline: map[int]float64{
			1: 82, 64: 152, 196: 186, 408: 279,
		},
	}
}

// CM1 is the paper's second workload: 200×200 columns (~800 MB/rank,
// checkpoint every 30 of 70 steps), scaled to 192×192 cells (~1.2 MB).
func CM1() Workload {
	return Workload{
		Name: "CM1",
		New: func(rank, nprocs int) stepper {
			return cm1.New(rank, nprocs, cm1.Config{NX: 192, NY: 192})
		},
		StepsPerPhase: 6,
		Checkpoints:   2,
		ChunkSize:     256,
		F:             1 << 11,
		Scale:         678, // 800 MB / ~1.18 MB
		Baseline: map[int]float64{
			12: 178, 120: 259, 264: 366, 408: 382,
		},
	}
}

// BaselineAt interpolates the no-checkpoint completion time at n ranks.
func (w Workload) BaselineAt(n int) float64 {
	if v, ok := w.Baseline[n]; ok {
		return v
	}
	var xs []int
	for k := range w.Baseline {
		xs = append(xs, k)
	}
	// Piecewise-linear in n over the sorted calibration points,
	// extrapolating flat at the ends.
	sortInts(xs)
	if n <= xs[0] {
		return w.Baseline[xs[0]]
	}
	for i := 1; i < len(xs); i++ {
		if n <= xs[i] {
			x0, x1 := xs[i-1], xs[i]
			y0, y1 := w.Baseline[x0], w.Baseline[x1]
			t := float64(n-x0) / float64(x1-x0)
			return y0 + t*(y1-y0)
		}
	}
	return w.Baseline[xs[len(xs)-1]]
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// ScenarioResult collects everything one simulated run produces.
type ScenarioResult struct {
	Workload Workload
	N, K     int
	Approach core.Approach
	Shuffle  bool
	// Dumps[c][r] is rank r's metrics for checkpoint c.
	Dumps [][]metrics.Dump
	// Plans[c] is the (rank-identical) plan of checkpoint c.
	Plans []*core.Plan
	// Model is the calibrated performance model (Scale applied).
	Model netsim.Model
}

// scenarioCache memoizes completed scenarios: several figures slice the
// same runs differently (e.g. Figure 4(a) and 4(b) both sweep K for all
// approaches), so each (workload, N, K, approach, shuffle) combination is
// simulated once per process.
var scenarioCache sync.Map

// RunScenario executes a full application run with checkpointing: N ranks
// step the workload, dump at each phase boundary, and report measured
// metrics. Results are memoized per parameter combination — unless the
// config carries a trace, in which case the scenario always runs live
// (cached results have no spans) and the result stays out of the cache.
func RunScenario(cfg Config, w Workload, n, k int, approach core.Approach, shuffle bool) (*ScenarioResult, error) {
	if cfg.Trace != nil {
		return runScenarioUncached(cfg, w, n, k, approach, shuffle)
	}
	key := fmt.Sprintf("%s/%d/%d/%d/%t/p%d/%s", w.Name, n, k, approach, shuffle, cfg.Parallelism, cfg.Chunker)
	if v, ok := scenarioCache.Load(key); ok {
		return v.(*ScenarioResult), nil
	}
	res, err := runScenarioUncached(cfg, w, n, k, approach, shuffle)
	if err != nil {
		return nil, err
	}
	scenarioCache.Store(key, res)
	return res, nil
}

func runScenarioUncached(cfg Config, w Workload, n, k int, approach core.Approach, shuffle bool) (*ScenarioResult, error) {
	if cfg.Verbose {
		obs.Printf("[experiments] %s N=%d K=%d %v shuffle=%v", w.Name, n, k, approach, shuffle)
	}
	// One trace process per scenario, one thread per rank.
	var pid int
	if cfg.Trace != nil {
		pid = cfg.Trace.NextPid()
		cfg.Trace.NamePid(pid, fmt.Sprintf("%s N=%d K=%d %v shuffle=%v", w.Name, n, k, approach, shuffle))
	}
	cluster := storage.NewCluster(n)
	res := &ScenarioResult{
		Workload: w, N: n, K: k, Approach: approach, Shuffle: shuffle,
		Dumps: make([][]metrics.Dump, w.Checkpoints),
		Plans: make([]*core.Plan, w.Checkpoints),
	}
	for c := range res.Dumps {
		res.Dumps[c] = make([]metrics.Dump, n)
	}
	// A configured timeout turns a wedged scenario into a prompt
	// collective abort on every rank. The scenario runner is the root of
	// the call tree, so the background context originates here by design.
	ctx := context.Background()
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	var mu sync.Mutex
	err := collectives.RunCtx(ctx, n, func(ctx context.Context, c collectives.Comm) error {
		rec := cfg.Trace.Track(pid, c.Rank(), fmt.Sprintf("rank %d", c.Rank()))
		app := w.New(c.Rank(), n)
		for ck := 0; ck < w.Checkpoints; ck++ {
			img := computePhase(rec, w, app)
			o := core.Options{
				K:           k,
				Approach:    approach,
				F:           w.F,
				Chunker:     chunk.Spec{Algo: cfg.Chunker, Size: w.ChunkSize},
				Shuffle:     core.Bool(shuffle),
				Name:        fmt.Sprintf("%s-ck%d", w.Name, ck),
				Trace:       rec,
				Parallelism: cfg.Parallelism,
			}
			r, err := core.DumpOutputCtx(ctx, c, cluster.Node(c.Rank()), img, o)
			if err != nil {
				return err
			}
			mu.Lock()
			res.Dumps[ck][c.Rank()] = r.Metrics
			res.Plans[ck] = r.Plan
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s N=%d K=%d %v: %w", w.Name, n, k, approach, err)
	}
	res.Model = netsim.Shamrock()
	res.Model.Scale = w.Scale
	return res, nil
}

// CheckpointTime returns the simulated duration of all checkpoints of the
// run combined (what a full application run pays on top of the baseline).
func (r *ScenarioResult) CheckpointTime() float64 {
	var total float64
	for _, dumps := range r.Dumps {
		total += r.Model.DumpTime(dumps).Total()
	}
	return total
}

// CompletionTime returns baseline + checkpointing cost (Table I).
func (r *ScenarioResult) CompletionTime() float64 {
	return r.Workload.BaselineAt(r.N) + r.CheckpointTime()
}

// ReduceOverhead returns the simulated collective-hash-reduction overhead
// of the last checkpoint (Figure 3b/c).
func (r *ScenarioResult) ReduceOverhead() float64 {
	return r.Model.ReduceOverhead(r.Dumps[len(r.Dumps)-1])
}

// UniqueContentBytes sums the identified-unique-content metric over ranks
// and checkpoints, scaled to testbed bytes (Figure 3a).
func (r *ScenarioResult) UniqueContentBytes() int64 {
	var sum int64
	for _, dumps := range r.Dumps {
		for _, d := range dumps {
			sum += d.UniqueContentBytes
		}
	}
	return int64(float64(sum) * r.Workload.Scale)
}

// lastDumps returns the final checkpoint's per-rank metrics.
func (r *ScenarioResult) lastDumps() []metrics.Dump {
	return r.Dumps[len(r.Dumps)-1]
}

// SentBytesPerRank returns scaled per-rank replication send sizes of the
// final checkpoint (Figure 4b/5b).
func (r *ScenarioResult) SentBytesPerRank() []int64 {
	dumps := r.lastDumps()
	out := make([]int64, len(dumps))
	for i, d := range dumps {
		out[i] = int64(float64(d.SentBytes) * r.Workload.Scale)
	}
	return out
}

// RecvBytesPerRank returns scaled per-rank receive sizes of the final
// checkpoint (Figure 4c/5c).
func (r *ScenarioResult) RecvBytesPerRank() []int64 {
	dumps := r.lastDumps()
	out := make([]int64, len(dumps))
	for i, d := range dumps {
		out[i] = int64(float64(d.RecvBytes) * r.Workload.Scale)
	}
	return out
}
