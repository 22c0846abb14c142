package fetch

import (
	"bytes"
	"fmt"
	"testing"

	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

// Every frame buffer given back to a free list is overwritten, so a reply
// given back while its records are read fails a test.
func init() { collectives.PoisonFrames() }

func TestBlobAndChunkFetch(t *testing.T) {
	const n = 4
	cluster := storage.NewCluster(n)
	data := []byte("remote chunk")
	fp := fingerprint.Of(data)
	if err := cluster.Node(2).PutChunk(fp, data); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Node(2).PutBlob("meta/x", []byte("blob!")); err != nil {
		t.Fatal(err)
	}
	err := collectives.Run(n, func(c collectives.Comm) error {
		srv := Serve(c, cluster.Node(c.Rank()), 0)
		if c.Rank() == 0 {
			got, ok, err := Chunk(c, 0, 2, fp)
			if err != nil || !ok || !bytes.Equal(got, data) {
				return fmt.Errorf("chunk fetch: %v %v %q", err, ok, got)
			}
			blob, ok, err := Blob(c, 0, 2, "meta/x")
			if err != nil || !ok || string(blob) != "blob!" {
				return fmt.Errorf("blob fetch: %v %v %q", err, ok, blob)
			}
			// Misses are reported, not errors.
			if _, ok, err := Blob(c, 0, 1, "absent"); err != nil || ok {
				return fmt.Errorf("absent blob: %v %v", err, ok)
			}
			if _, ok, err := Chunk(c, 0, 3, fingerprint.Of([]byte("nope"))); err != nil || ok {
				return fmt.Errorf("absent chunk: %v %v", err, ok)
			}
		}
		if err := collectives.Barrier(c); err != nil {
			return err
		}
		srv.Stop()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFailedStoreReportsNotFound(t *testing.T) {
	const n = 2
	cluster := storage.NewCluster(n)
	cluster.FailNodes(1)
	err := collectives.Run(n, func(c collectives.Comm) error {
		srv := Serve(c, cluster.Node(c.Rank()), 0)
		if c.Rank() == 0 {
			_, ok, err := Blob(c, 0, 1, "anything")
			if err != nil || ok {
				return fmt.Errorf("failed node fetch: %v %v", err, ok)
			}
		}
		if err := collectives.Barrier(c); err != nil {
			return err
		}
		srv.Stop()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClassesAreIsolated(t *testing.T) {
	// Two fetch services with different classes on the same comm must
	// not steal each other's traffic.
	const n = 2
	storeA, storeB := storage.NewMem(), storage.NewMem()
	if err := storeA.PutBlob("x", []byte("A")); err != nil {
		t.Fatal(err)
	}
	if err := storeB.PutBlob("x", []byte("B")); err != nil {
		t.Fatal(err)
	}
	err := collectives.Run(n, func(c collectives.Comm) error {
		var a, b *Server
		if c.Rank() == 1 {
			a = Serve(c, storeA, 0)
			b = Serve(c, storeB, 1)
		}
		if c.Rank() == 0 {
			got, ok, err := Blob(c, 0, 1, "x")
			if err != nil || !ok || string(got) != "A" {
				return fmt.Errorf("class 0 got %q (%v, %v)", got, ok, err)
			}
			got, ok, err = Blob(c, 1, 1, "x")
			if err != nil || !ok || string(got) != "B" {
				return fmt.Errorf("class 1 got %q (%v, %v)", got, ok, err)
			}
		}
		if err := collectives.Barrier(c); err != nil {
			return err
		}
		if c.Rank() == 1 {
			a.Stop()
			b.Stop()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStopIsIdempotentAfterClose(t *testing.T) {
	g, err := collectives.NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := g.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(c, storage.NewMem(), 0)
	g.Close()
	srv.Stop() // must not hang or panic on a closed communicator
}

// TestFetchGivesFramesBack: every fetch frame — synchronous and batched,
// request and reply, hit and miss, malformed request, the server's stop —
// travels in a buffer of the communicator's free list and goes back to
// it, on both transports and through the fault-injection wrapper: once
// the servers stop, no rank has a buffer out.
func TestFetchGivesFramesBack(t *testing.T) {
	const n = 3
	data := []byte("remote chunk")
	fp := fingerprint.Of(data)
	stores := memStores(n)
	if err := stores[1].PutChunk(fp, data); err != nil {
		t.Fatal(err)
	}
	if err := stores[2].PutBlob("meta/x", []byte("blob!")); err != nil {
		t.Fatal(err)
	}
	body := func(c collectives.Comm) error {
		srv := Serve(c, stores[c.Rank()], 0)
		if c.Rank() == 0 {
			if got, ok, err := Chunk(c, 0, 1, fp); err != nil || !ok || !bytes.Equal(got, data) {
				return fmt.Errorf("chunk fetch: %v %v %q", err, ok, got)
			}
			if blob, ok, err := Blob(c, 0, 2, "meta/x"); err != nil || !ok || string(blob) != "blob!" {
				return fmt.Errorf("blob fetch: %v %v %q", err, ok, blob)
			}
			if _, ok, err := Blob(c, 0, 1, "absent"); err != nil || ok {
				return fmt.Errorf("absent blob: %v %v", err, ok)
			}
			if _, ok, err := Chunk(c, 0, 0, fp); err != nil || ok {
				return fmt.Errorf("absent chunk from itself: %v %v", err, ok)
			}
			if err := c.Send(1, Class(0).reqTag(), []byte{opChunks}); err != nil {
				return err
			}
			p := NewPipeline(c, 0)
			if err := p.Ask(1, []fingerprint.FP{fp, fingerprint.Of([]byte("nope"))}); err != nil {
				return err
			}
			ex, err := p.Next()
			if err != nil || len(ex.Records) != 2 || !bytes.Equal(ex.Records[0].Data, data) || ex.Records[1].Found {
				return fmt.Errorf("batched fetch: %v %+v", err, ex.Records)
			}
			p.Release(ex)
		}
		if err := collectives.Barrier(c); err != nil {
			return err
		}
		srv.Stop()
		return collectives.Barrier(c)
	}
	outs := func(label string, comms []collectives.Comm) {
		t.Helper()
		for r, c := range comms {
			if st := collectives.Frames(c); st.Out != 0 {
				t.Errorf("%s: rank %d has %d buffers out: %+v", label, r, st.Out, st)
			}
		}
	}
	// run runs body on every rank of comms, or of comms fault-wrapped,
	// and checks the lists of comms.
	run := func(label string, comms []collectives.Comm, wrapped bool) {
		t.Helper()
		ranks := comms
		if wrapped {
			ranks = make([]collectives.Comm, len(comms))
			for r, c := range comms {
				ranks[r] = collectives.InjectFaults(c, collectives.FaultPlan{})
			}
		}
		errs := make(chan error, len(ranks))
		for _, c := range ranks {
			go func() { errs <- body(c) }()
		}
		for range ranks {
			if err := <-errs; err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		outs(label, comms)
	}

	g, err := collectives.NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	inproc := make([]collectives.Comm, n)
	for r := range inproc {
		c, err := g.Comm(r)
		if err != nil {
			t.Fatal(err)
		}
		inproc[r] = c
	}
	run("in process", inproc, false)
	run("in process, fault-wrapped", inproc, true)

	tcp, err := collectives.StartLocalTCP(n)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]collectives.Comm, n)
	for r, c := range tcp {
		comms[r] = c
		defer c.Close()
	}
	run("over TCP", comms, false)
	run("over TCP, fault-wrapped", comms, true)
}
