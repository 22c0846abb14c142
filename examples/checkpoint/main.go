// Checkpoint-restart demo: the paper's headline use case. Sixteen ranks
// run the HPCCG mini-app under the ftrun fault-tolerance runtime, take
// periodic collective checkpoints with coll-dedup (K=3), lose two nodes,
// and restart the whole computation from the newest surviving checkpoint.
//
//	go run ./examples/checkpoint
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"dedupcr/internal/apps/hpccg"
	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/ftrun"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

const (
	nRanks     = 16
	k          = 3
	iterations = 12
	ckptEvery  = 4
)

func opts() core.Options {
	return core.Options{K: k, Approach: core.CollDedup, Chunker: chunk.Spec{Size: 256}, Name: "hpccg"}
}

func main() {
	timeout := flag.Duration("timeout", 2*time.Minute, "abort either collective phase after this long")
	flag.Parse()

	cluster := storage.NewCluster(nRanks)
	preFailure := make([][]byte, nRanks)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Phase 1: run the solver with periodic checkpoints.
	err := collectives.RunCtx(ctx, nRanks, func(ctx context.Context, c collectives.Comm) error {
		rt := ftrun.New(c, cluster.Node(c.Rank()), opts())
		app := hpccg.New(c.Rank(), nRanks, hpccg.Config{NX: 12, NY: 12, NZ: 12})
		for it := 1; it <= iterations; it++ {
			res, err := app.StepCollective(c)
			if err != nil {
				return err
			}
			if it%ckptEvery == 0 {
				if _, err := rt.CheckpointAppCtx(ctx, app); err != nil {
					return err
				}
				if c.Rank() == 0 {
					m := rt.LastDump
					fmt.Printf("iter %2d: checkpoint %d taken  (residual %.3e, rank 0 stored %s, sent %s)\n",
						it, rt.Epoch(), res, metrics.Bytes(m.StoredBytes), metrics.Bytes(m.SentBytes))
				}
			}
		}
		preFailure[c.Rank()] = app.CheckpointImage()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 2: two nodes die (K=3 was chosen to survive exactly this).
	fmt.Println("\n*** nodes 3 and 11 fail; replacing them with blank storage ***")
	cluster.FailNodes(3, 11)
	cluster.Replace(3)
	cluster.Replace(11)

	// Phase 3: restart everywhere from the newest surviving checkpoint.
	err = collectives.RunCtx(ctx, nRanks, func(ctx context.Context, c collectives.Comm) error {
		rt := ftrun.New(c, cluster.Node(c.Rank()), opts())
		app := hpccg.New(c.Rank(), nRanks, hpccg.Config{NX: 12, NY: 12, NZ: 12})
		epoch, err := rt.RestartAppCtx(ctx, app)
		if err != nil {
			return err
		}
		// The restart state must match what was checkpointed at that
		// epoch: iterations - iterations%ckptEvery steps in.
		if !bytes.Equal(app.CheckpointImage(), preFailure[c.Rank()]) {
			// preFailure was taken at the final iteration == the last
			// checkpoint in this configuration.
			return fmt.Errorf("rank %d: restarted state differs from last checkpoint", c.Rank())
		}
		if c.Rank() == 0 {
			fmt.Printf("restarted all %d ranks from checkpoint epoch %d (iteration %d)\n",
				nRanks, epoch, (epoch+1)*ckptEvery)
		}
		// Resume the computation to show the run continues.
		for it := 0; it < 2; it++ {
			if _, err := app.StepCollective(c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpoint-restart OK: computation resumed after losing K-1 nodes")
}
