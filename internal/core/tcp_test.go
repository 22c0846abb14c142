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

// runComms drives body once per communicator of an existing group, one
// goroutine each, and fails the test on the first rank error.
func runComms[C collectives.Comm](t *testing.T, comms []C, body func(c collectives.Comm) error) {
	t.Helper()
	errs := make([]error, len(comms))
	var wg sync.WaitGroup
	for r := range comms {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(comms[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestDumpRestoreOverTCP runs the full coll-dedup pipeline — fingerprint
// allreduce, load allgathers, window puts, restore RPCs — over the real
// socket transport.
func TestDumpRestoreOverTCP(t *testing.T) {
	const n, k = 5, 3
	comms, err := collectives.StartLocalTCP(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	cluster := storage.NewCluster(n)

	run := func(body func(c collectives.Comm) error) {
		t.Helper()
		runComms(t, comms, body)
	}

	buffers := make([][]byte, n)
	var mu sync.Mutex
	run(func(c collectives.Comm) error {
		buf := testBuffer(c.Rank(), 6, 4, 3, 2)
		o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "tcp-ck"}
		if _, err := DumpOutput(c, cluster.Node(c.Rank()), buf, o); err != nil {
			return err
		}
		mu.Lock()
		buffers[c.Rank()] = buf
		mu.Unlock()
		return nil
	})

	// Fail a node, then restore everything over sockets.
	cluster.FailNodes(2)
	cluster.Replace(2)
	run(func(c collectives.Comm) error {
		got, err := Restore(c, cluster.Node(c.Rank()), "tcp-ck")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, buffers[c.Rank()]) {
			return fmt.Errorf("restore mismatch over TCP")
		}
		return nil
	})
}
