package experiments

import (
	"fmt"
	"sync"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
	"dedupcr/internal/storage"
	"dedupcr/internal/telemetry"
)

// Imbalance exercises the cluster telemetry plane on a live multi-rank
// run: for each approach it checkpoints the HPCCG workload, gathers
// every rank's metrics to rank 0 in-band (telemetry.GatherCluster over
// the group's own collectives) and reports the cluster-level view — the
// designation- and send-load-imbalance coefficients the paper's
// load-balanced designation targets, the cross-rank put spread and any
// flagged stragglers.
func Imbalance(cfg Config) (*Table, error) {
	w := HPCCG()
	n := 32
	if cfg.Quick {
		n = 8
	}
	const k = 3

	tab := &Table{
		ID:    "imbalance",
		Title: "Cluster telemetry: load imbalance and phase spread across ranks",
		Header: []string{"approach", "desig imb", "send imb", "put median",
			"put max", "slowest", "clock spread", "stragglers"},
		Notes: []string{
			fmt.Sprintf("HPCCG N=%d K=%d; imbalance = max/mean over ranks (1.0 = perfectly balanced)", n, k),
			"coll-dedup's load-balanced designation should show the lowest send imbalance",
			fmt.Sprintf("stragglers: phase > %.1fx cluster median with >= %s excess",
				telemetry.DefaultStragglerFactor, telemetry.DefaultMinExcess),
		},
	}
	for _, approach := range []core.Approach{core.NoDedup, core.LocalDedup, core.CollDedup} {
		cd, ranks, err := runClusterScenario(cfg, w, n, k, approach)
		if err != nil {
			return nil, err
		}
		if cfg.OnCluster != nil {
			cfg.OnCluster(fmt.Sprintf("imbalance/%s", approach), cd, ranks)
		}
		put := cd.Phase("put")
		tab.Rows = append(tab.Rows, []string{
			approach.String(),
			fmt.Sprintf("%.3f", cd.DesignationImbalance),
			fmt.Sprintf("%.3f", cd.SendImbalance),
			metrics.Duration(put.Median),
			metrics.Duration(put.Max),
			fmt.Sprintf("rank %d", put.SlowestRank),
			metrics.Duration(cd.ClockSpread),
			fmt.Sprint(len(cd.Stragglers)),
		})
	}
	return tab, nil
}

// runClusterScenario runs one traced, checkpointed workload and returns
// rank 0's in-band ClusterDump plus the per-rank trace slices (for the
// merged cross-rank trace). It always records spans — into cfg.Trace
// when set, else into a private trace ring — so the merged trace is
// available regardless of the -trace flag.
func runClusterScenario(cfg Config, w Workload, n, k int, approach core.Approach) (*telemetry.ClusterDump, []telemetry.RankTrace, error) {
	tr := cfg.Trace
	if tr == nil {
		tr = obs.New(privateTraceSize)
	}
	since := tr.Total()
	pid := tr.NextPid()
	label := fmt.Sprintf("imbalance %s N=%d K=%d %v", w.Name, n, k, approach)
	tr.NamePid(pid, label)
	if cfg.Verbose {
		obs.Printf("[experiments] %s", label)
	}

	cluster := storage.NewCluster(n)
	var cd *telemetry.ClusterDump
	var mu sync.Mutex
	err := collectives.Run(n, func(c collectives.Comm) error {
		rank := c.Rank()
		rec := tr.Track(pid, rank, fmt.Sprintf("rank %d", rank))
		img := computePhase(rec, w, w.New(rank, n))
		o := core.Options{
			K: k, Approach: approach, F: w.F,
			Chunker: chunk.Spec{Algo: cfg.Chunker, Size: w.ChunkSize},
			Name:    fmt.Sprintf("%s-imb", w.Name), Trace: rec,
			Parallelism: cfg.Parallelism,
		}
		res, err := core.DumpOutput(c, cluster.Node(rank), img, o)
		if err != nil {
			return err
		}
		got, err := telemetry.GatherCluster(c, res.Metrics)
		if err != nil {
			return err
		}
		if rank == 0 {
			mu.Lock()
			cd = got
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cluster scenario %s: %w", label, err)
	}

	ranks, err := scenarioTraces(tr, pid, since)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster scenario %s: %w", label, err)
	}
	return cd, ranks, nil
}
