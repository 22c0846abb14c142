package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/storage"
)

// TestFigure1Nutshell reproduces the paper's Figure 1 scenario: three
// processes call DUMP_OUTPUT with K=3. Chunks already present on all
// three ranks are natural replicas — the replication factor is met with
// zero transfers — while rank-private chunks are pushed to both partners,
// and every chunk ends up on all three nodes.
func TestFigure1Nutshell(t *testing.T) {
	const n, k = 3, 3
	cluster := storage.NewCluster(n)
	buffers := make([][]byte, n)
	results := make([]*Result, n)
	var mu sync.Mutex

	err := collectives.Run(n, func(c collectives.Comm) error {
		// Dataset per rank: one chunk shared by everyone (A), one chunk
		// shared by this rank and the next (pairwise), one private.
		shared := page("fig1-A")
		pair := page(fmt.Sprintf("fig1-pair-%d", min(c.Rank(), (c.Rank()+1)%n)))
		pairPrev := page(fmt.Sprintf("fig1-pair-%d", min((c.Rank()-1+n)%n, c.Rank())))
		private := page(fmt.Sprintf("fig1-private-%d", c.Rank()))
		buf := concat(shared, pair, pairPrev, private)

		res, err := DumpOutput(c, cluster.Node(c.Rank()), buf, Options{
			K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "fig1", F: 0,
		})
		if err != nil {
			return err
		}
		mu.Lock()
		buffers[c.Rank()] = buf
		results[c.Rank()] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every distinct chunk must reside on all three nodes (K = N = 3).
	for fp, holders := range holderCount(t, cluster, buffers) {
		if holders != n {
			t.Errorf("chunk %s on %d nodes, want %d", fp.Short(), holders, n)
		}
	}

	// The globally shared chunk A occurs on 3 ranks = K: it must not be
	// transferred at all. Each rank therefore sends at most its pair
	// chunk (to 1 missing holder) and its private chunk (to 2 partners).
	chunker := chunk.NewFixed(testPage)
	sharedFP := chunker.Split(page("fig1-A"))[0].FP
	for r, res := range results {
		e := res.Global.Lookup(sharedFP)
		if e == nil {
			t.Fatalf("shared chunk missing from global view")
		}
		if got := int(e.Freq); got != 3 {
			t.Errorf("shared chunk frequency = %d, want 3", got)
		}
		if len(e.Ranks) != k {
			t.Errorf("shared chunk designated on %d ranks, want %d", len(e.Ranks), k)
		}
		// Upper bound on sends: pair chunk to 1 rank + private to 2.
		maxSend := int64(3 * testPage)
		if res.Metrics.SentBytes > maxSend {
			t.Errorf("rank %d sent %d bytes, deduplication should cap it at %d",
				r, res.Metrics.SentBytes, maxSend)
		}
	}

	// And the dump must still restore byte-exactly everywhere.
	err = collectives.Run(n, func(c collectives.Comm) error {
		got, err := Restore(c, cluster.Node(c.Rank()), "fig1")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, buffers[c.Rank()]) {
			return fmt.Errorf("rank %d restore mismatch", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
