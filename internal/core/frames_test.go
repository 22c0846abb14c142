package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/storage"
)

// TestSegDumpGivesFramesBack: over TCP into segment stores, which never
// keep a landed frame, every buffer a dump takes from a rank's free list
// comes back to it — the frames it received once written to the store,
// the frames it sent once written to the socket — and so does every
// buffer of the fetches of a restore that refills a wiped rank: batched
// and synchronous, requests and replies, on the serving side and on the
// asking one. A store that claimed to keep its frames, a restore that
// kept its batched replies, or a server that kept a request would leave
// buffers out. The restored bytes are the
// dumped ones, with every given-back buffer poisoned.
func TestSegDumpGivesFramesBack(t *testing.T) {
	const n, k = 4, 3
	comms, err := collectives.StartLocalTCP(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	dirs := make([]string, n)
	stores := make([]*storage.SegStore, n)
	for r := range stores {
		dirs[r] = t.TempDir()
		stores[r] = openSeg(t, dirs[r])
	}
	// 2.5 MiB of unique pages per rank: each partner region takes several
	// put frames, full-size ones among them.
	buffers := make([][]byte, n)
	for r := range buffers {
		buffers[r] = make([]byte, 5<<19)
		rand.New(rand.NewSource(int64(r))).Read(buffers[r])
	}
	allBack := func(after string) {
		t.Helper()
		for r, c := range comms {
			if st := collectives.Frames(c); st.Out != 0 || st.Free == 0 {
				t.Fatalf("after %s, rank %d's free list: %+v; want no buffer out", after, r, st)
			}
		}
	}
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: 4096}, Name: "frames"}
	for i := 0; i < 2; i++ {
		runComms(t, comms, func(c collectives.Comm) error {
			_, err := DumpOutput(c, stores[c.Rank()], buffers[c.Rank()], o)
			return err
		})
		allBack(fmt.Sprintf("dump %d", i+1))
	}
	const wiped = 1
	if err := stores[wiped].Close(); err != nil {
		t.Fatal(err)
	}
	stores[wiped] = openSeg(t, t.TempDir())
	runComms(t, comms, func(c collectives.Comm) error {
		got, err := Restore(c, stores[c.Rank()], o.Name)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, buffers[c.Rank()]) {
			return fmt.Errorf("restore mismatch")
		}
		return nil
	})
	allBack("the restore")
}

// TestFrameListBound: an in-process group whose rank 0 sends far more
// than it receives re-dumps one dataset 50 times into memory stores. The
// first dump's frames become store arenas; every later one lands on
// chunks the stores hold, so its frames go back to the group's free list
// and the next dump reuses them. No buffer is out after any dump: a frame
// a store keeps is the store's (Keep), every other one comes back. The
// list never holds more buffers than were out at once, it is used, and
// Close empties it.
func TestFrameListBound(t *testing.T) {
	const n, k, dumps = 4, 3, 50
	g, err := collectives.NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]*collectives.InprocComm, n)
	for r := range comms {
		if comms[r], err = g.Comm(r); err != nil {
			t.Fatal(err)
		}
	}
	stores := make([]storage.Store, n)
	buffers := make([][]byte, n)
	for r := range buffers {
		stores[r] = storage.NewMem()
		size := 64 << 10
		if r == 0 {
			size = 3 << 19
		}
		buffers[r] = make([]byte, size)
		rand.New(rand.NewSource(int64(r))).Read(buffers[r])
	}
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: 4096}, Name: "lopsided"}
	for i := 0; i < dumps; i++ {
		runComms(t, comms, func(c collectives.Comm) error {
			_, err := DumpOutput(c, stores[c.Rank()], buffers[c.Rank()], o)
			return err
		})
		st := collectives.Frames(comms[0])
		if st.Out != 0 || st.Free > st.PeakOut {
			t.Fatalf("after dump %d the free list is %+v: want no buffer out, and no more free than were ever out at once", i+1, st)
		}
	}
	st := collectives.Frames(comms[0])
	if st.Free == 0 {
		t.Fatalf("after %d re-dumps the free list is empty: %+v", dumps, st)
	}
	t.Logf("free list after %d dumps: %+v", dumps, st)
	g.Close()
	if st := collectives.Frames(comms[0]); st.Free != 0 {
		t.Fatalf("Close left %d buffers in the free list", st.Free)
	}
}
