// Sockets demo: the same collective dump, but over the real TCP
// transport with segment-store-backed nodes — each rank listens on its own
// loopback port and all collectives (fingerprint allreduce, load
// allgather, one-sided window puts) travel through actual sockets, the
// deployment shape of cmd/replicad.
//
//	go run ./examples/sockets
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dedupcr/internal/apps/cm1"
	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

func main() {
	timeout := flag.Duration("timeout", time.Minute, "abort the collective dump/restore after this long")
	flag.Parse()

	const nRanks, k = 6, 3

	tmp, err := os.MkdirTemp("", "dedupcr-sockets-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	comms, err := collectives.StartLocalTCP(nRanks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("started %d TCP ranks:", nRanks)
	for _, c := range comms {
		fmt.Printf(" %s", c.LocalAddr())
	}
	fmt.Println()

	// One deadline for all ranks: a cancelled or expired context aborts
	// the TCP collectives on every rank instead of hanging the group.
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, nRanks)
	for r := 0; r < nRanks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = runRank(ctx, comms[rank], filepath.Join(tmp, fmt.Sprintf("node%d", rank)))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			log.Fatalf("rank %d: %v", r, err)
		}
	}
	for _, c := range comms {
		c.Close()
	}
	fmt.Println("sockets OK: dump and restore ran over real TCP with on-disk segment stores")
}

func runRank(ctx context.Context, c collectives.Comm, dir string) (err error) {
	store, err := storage.NewSegStore(dir, storage.SegConfig{})
	if err != nil {
		return err
	}
	// Close seals, commits and stops the compactor; its error matters
	// only when nothing failed before it.
	defer func() {
		if cerr := store.Close(); err == nil {
			err = cerr
		}
	}()
	// A CM1 storm checkpoint as the dataset.
	app := cm1.New(c.Rank(), c.Size(), cm1.Config{NX: 96, NY: 96})
	for i := 0; i < 4; i++ {
		app.Step()
	}
	buf := app.CheckpointImage()

	res, err := core.DumpOutputCtx(ctx, c, store, buf, core.Options{
		K:        3,
		Approach: core.CollDedup,
		Chunker:  chunk.Spec{Size: 256},
		Name:     "cm1-demo",
	})
	if err != nil {
		return err
	}
	if c.Rank() == 0 {
		m := res.Metrics
		s := c.Stats()
		fmt.Printf("rank 0: dumped %s; socket traffic: %s sent / %s received in %d messages\n",
			metrics.Bytes(m.DatasetBytes), metrics.Bytes(s.BytesSent),
			metrics.Bytes(s.BytesRecv), s.MsgsSent)
	}

	got, err := core.RestoreCtx(ctx, c, store, "cm1-demo")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, buf) {
		return fmt.Errorf("restore mismatch")
	}
	return nil
}
