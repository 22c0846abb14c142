package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
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

// Fragmentation measures the restore-side cost of collective dedup as
// the duplication degree D rises: blocks of D consecutive ranks carry
// identical checkpoint content, so coll-dedup designates each shared
// chunk to K holder ranks and the other D-K sharers discard their local
// copies — their restores must then chase every chunk across the
// network. The experiment dumps, restores in place (no failures), and
// reports the cluster restore telemetry: read amplification vs dedup
// ratio, fetch volume, distinct objects touched, source scatter and the
// sequential-run-length distribution, all of which degrade once D
// exceeds K.
func Fragmentation(cfg Config) (*Table, error) {
	n := 24
	chunksPerRank := 512
	if cfg.Quick {
		n = 8
		chunksPerRank = 256
	}
	const (
		k         = 3
		chunkSize = 256
	)

	tab := &Table{
		ID:    "fragmentation",
		Title: "Restore fragmentation: read amplification and locality vs duplication degree",
		Header: []string{"D", "dedup ratio", "read amp", "fetched", "objects",
			"max sources", "run p50", "run max", "fetch imb"},
		Notes: []string{
			fmt.Sprintf("N=%d K=%d, %d chunks x %dB per rank; blocks of D ranks share identical content; chunker=%s", n, k, chunksPerRank, chunkSize, cfg.Chunker),
			fmt.Sprintf("for D <= K every sharer is a designated holder and restores stay local; for D > K the surplus D-%d sharers fetch everything", k),
			"read amp = bytes fetched from peers / logical image bytes; runs are maximal same-source stretches of the recipe walk, in chunks",
		},
	}

	for _, d := range []int{1, 2, 4, 8} {
		if d > n {
			continue
		}
		cr, ranks, row, err := runFragmentationScenario(cfg, n, k, d, chunksPerRank, chunkSize)
		if err != nil {
			return nil, err
		}
		if cfg.OnClusterRestore != nil {
			cfg.OnClusterRestore(fmt.Sprintf("fragmentation/D=%d", d), cr, ranks)
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// fragBuffer builds rank r's synthetic checkpoint image for duplication
// degree d: ranks within one block of d share byte-identical content
// (seeded by the block index), so every chunk is duplicated exactly d
// times across the group. The filler is a fixed affine byte pattern —
// deterministic across runs and platforms.
func fragBuffer(rank, d, chunksPerRank, chunkSize int) []byte {
	block := rank / d
	buf := make([]byte, 0, chunksPerRank*chunkSize)
	for j := 0; j < chunksPerRank; j++ {
		chunk := make([]byte, chunkSize)
		binary.BigEndian.PutUint32(chunk[0:], uint32(block))
		binary.BigEndian.PutUint32(chunk[4:], uint32(j))
		for i := 8; i < chunkSize; i++ {
			chunk[i] = byte(block*131 + j*31 + i*7)
		}
		buf = append(buf, chunk...)
	}
	return buf
}

// runFragmentationScenario dumps and restores one duplication-degree
// setting, returning rank 0's ClusterRestore, the per-rank restore trace
// slices and the rendered table row.
func runFragmentationScenario(cfg Config, n, k, d, chunksPerRank, chunkSize int) (*telemetry.ClusterRestore, []telemetry.RankTrace, []string, error) {
	tr := cfg.Trace
	if tr == nil {
		tr = obs.New(privateTraceSize)
	}
	since := tr.Total()
	pid := tr.NextPid()
	label := fmt.Sprintf("fragmentation N=%d K=%d D=%d", n, k, d)
	tr.NamePid(pid, label)
	if cfg.Verbose {
		obs.Printf("[experiments] %s", label)
	}

	cluster := storage.NewCluster(n)
	var (
		mu           sync.Mutex
		cr           *telemetry.ClusterRestore
		datasetBytes int64
		uniqueBytes  int64
	)
	// The scenario runner is the root of the call tree, so the
	// background context originates here by design.
	err := collectives.RunCtx(context.Background(), n, func(ctx context.Context, c collectives.Comm) error {
		rank := c.Rank()
		rec := tr.Track(pid, rank, fmt.Sprintf("rank %d", rank))
		buf := fragBuffer(rank, d, chunksPerRank, chunkSize)
		o := core.Options{
			K: k, Approach: core.CollDedup, F: 1 << 11,
			Chunker: chunk.Spec{Algo: cfg.Chunker, Size: chunkSize},
			Name:    "frag", Trace: rec, Parallelism: cfg.Parallelism,
		}
		res, err := core.DumpOutputCtx(ctx, c, cluster.Node(rank), buf, o)
		if err != nil {
			return err
		}
		mu.Lock()
		datasetBytes += res.Metrics.DatasetBytes
		uniqueBytes += res.Metrics.UniqueContentBytes
		mu.Unlock()

		// Restore in place: no failures, but coll-dedup already discarded
		// chunks designated to other holders, so D > K forces fetches.
		rres, err := core.RestoreOutputCtx(ctx, c, cluster.Node(rank), "frag", rec)
		if err != nil {
			return err
		}
		if !bytes.Equal(rres.Data, buf) {
			return fmt.Errorf("rank %d corrupt restore", rank)
		}
		got, err := telemetry.GatherClusterRestore(c, rres.Metrics)
		if err != nil {
			return err
		}
		if rank == 0 {
			mu.Lock()
			cr = got
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("fragmentation scenario %s: %w", label, err)
	}

	dedupRatio := 0.0
	if uniqueBytes > 0 {
		dedupRatio = float64(datasetBytes) / float64(uniqueBytes)
	}
	row := []string{
		fmt.Sprintf("%d", d),
		fmt.Sprintf("%.2fx", dedupRatio),
		fmt.Sprintf("%.3fx", cr.ReadAmplificationBytes),
		metrics.Bytes(cr.TotalFetchedBytes),
		fmt.Sprint(cr.TotalObjectsTouched),
		fmt.Sprint(cr.MaxSourceRanks),
		fmt.Sprint(cr.RunLengths.P50),
		fmt.Sprint(cr.RunLengths.Max),
		fmt.Sprintf("%.3f", cr.FetchImbalance),
	}

	ranks, err := scenarioTraces(tr, pid, since)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("fragmentation scenario %s: %w", label, err)
	}
	return cr, ranks, row, nil
}
