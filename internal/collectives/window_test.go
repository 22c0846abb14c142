package collectives

import (
	"bytes"
	"fmt"
	"testing"
)

func TestWindowInprocExchange(t *testing.T) {
	// Three ranks fill rank 0's window at planned offsets.
	err := Run(3, func(c Comm) error {
		var size int64
		if c.Rank() == 0 {
			size = 12
		}
		win := OpenWindow(c, size, 1)
		switch c.Rank() {
		case 0:
			if err := win.Put(0, 8, []byte("self")); err != nil {
				return err
			}
			buf, err := win.Wait()
			if err != nil {
				return err
			}
			if string(buf) != "aaaabbbbself" {
				return fmt.Errorf("window = %q", buf)
			}
		case 1:
			if err := win.Put(0, 0, []byte("aaaa")); err != nil {
				return err
			}
			if _, err := win.Wait(); err != nil {
				return err
			}
		case 2:
			if err := win.Put(0, 4, []byte("bbbb")); err != nil {
				return err
			}
			if _, err := win.Wait(); err != nil {
				return err
			}
		}
		return Barrier(c)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowZeroSize(t *testing.T) {
	err := Run(2, func(c Comm) error {
		win := OpenWindow(c, 0, 1)
		buf, err := win.Wait() // must return immediately
		if err != nil {
			return err
		}
		if len(buf) != 0 {
			return fmt.Errorf("zero window returned %d bytes", len(buf))
		}
		return Barrier(c)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowRejectsOutOfBoundsPut(t *testing.T) {
	err := Run(1, func(c Comm) error {
		win := OpenWindow(c, 4, 1)
		if err := win.Put(0, 2, []byte("toolong")); err == nil {
			return fmt.Errorf("out-of-bounds self-put accepted")
		}
		if err := win.Put(0, -1, []byte("x")); err == nil {
			return fmt.Errorf("negative offset accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowRemoteOverrunDetected(t *testing.T) {
	err := Run(2, func(c Comm) error {
		var size int64
		if c.Rank() == 0 {
			size = 4
		}
		win := OpenWindow(c, size, 1)
		if c.Rank() == 1 {
			// Remote put that overruns the target window.
			return win.Put(0, 2, []byte("long"))
		}
		if _, err := win.Wait(); err == nil {
			return fmt.Errorf("overrunning remote put not detected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowLargePayloadRoundTrip(t *testing.T) {
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	err := Run(2, func(c Comm) error {
		var size int64
		if c.Rank() == 0 {
			size = int64(len(payload))
		}
		win := OpenWindow(c, size, 1)
		if c.Rank() == 1 {
			// Split into many puts at computed offsets, out of order.
			const piece = 4096
			for off := len(payload) - piece; off >= 0; off -= piece {
				if err := win.Put(0, int64(off), payload[off:off+piece]); err != nil {
					return err
				}
			}
			return Barrier(c)
		}
		buf, err := win.Wait()
		if err != nil {
			return err
		}
		if !bytes.Equal(buf, payload) {
			return fmt.Errorf("window content corrupted")
		}
		return Barrier(c)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvWildcardValidation(t *testing.T) {
	err := Run(1, func(c Comm) error {
		if _, err := c.Recv(AnyRank, 5); err == nil {
			return fmt.Errorf("AnyRank receive on a user tag accepted")
		}
		if _, err := c.Recv(0, WildcardTag(3)); err == nil {
			return fmt.Errorf("specific-sender receive on a wildcard tag accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWildcardTagDisjointFromWindowEpochs(t *testing.T) {
	// The first million window epochs and the wildcard space must not
	// collide.
	seen := map[Tag]bool{}
	for e := uint32(0); e < 1<<20; e += 1 << 15 {
		seen[windowTag(e)] = true
	}
	for n := uint32(0); n < 1<<19; n += 1 << 14 {
		if seen[WildcardTag(n)] {
			t.Fatalf("WildcardTag(%d) collides with a window epoch tag", n)
		}
	}
}

// TestMaxPutFrameReadInOneAllocation pins why MaxPutBytes is what it is:
// the frame of a maximum-size put is exactly the receiver's first frame
// allocation, so readFrame allocates its payload at most once — as for a
// tiny frame — and not at all once the free list holds a buffer it fits;
// only a frame one byte larger takes the grow-and-copy path. Under the
// race detector only the length and capacity checks run: its
// instrumentation adds allocations of its own, now and then.
func TestMaxPutFrameReadInOneAllocation(t *testing.T) {
	if MaxPutBytes+putHeader != frameAllocChunk {
		t.Fatalf("MaxPutBytes %d + %d-byte put header != frame allocation step %d", MaxPutBytes, putHeader, frameAllocChunk)
	}
	// allocs reads a window frame of payloadLen bytes with free as the
	// list, giving each payload back when giveBack is set.
	allocs := func(payloadLen int, free *frameList, giveBack bool) float64 {
		var wire bytes.Buffer
		if err := writeFrame(&wire, windowTag(1), make([]byte, payloadLen)); err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(nil)
		fr := &frameReader{r: r, free: free}
		return testing.AllocsPerRun(20, func() {
			r.Reset(wire.Bytes())
			_, payload, _, err := fr.next()
			if err != nil || len(payload) != payloadLen || cap(payload) != payloadLen {
				t.Fatalf("readFrame(%d bytes): len %d cap %d err %v", payloadLen, len(payload), cap(payload), err)
			}
			if giveBack {
				free.put(payload)
			}
		})
	}
	tiny, over := allocs(16, nil, false), allocs(putHeader+MaxPutBytes+1, nil, false)
	fresh := allocs(putHeader+MaxPutBytes, &frameList{}, false)
	reused := allocs(putHeader+MaxPutBytes, &frameList{}, true)
	if raceEnabled {
		return
	}
	if fresh > tiny {
		t.Errorf("a maximum-size put frame costs %.0f allocations to read, a 16-byte frame %.0f: the payload was not allocated once", fresh, tiny)
	}
	if reused != 0 {
		t.Errorf("a maximum-size put frame costs %.0f allocations to read with its buffer given back each time, want 0", reused)
	}
	if over != tiny+1 {
		t.Errorf("a frame one byte over the cap costs %.0f allocations, want %.0f (one regrow)", over, tiny+1)
	}
}

// TestWindowConcurrentPutsAroundCap drives concurrent put streams whose
// sizes straddle MaxPutBytes over TCP: pooled frames must never leak one
// put's bytes into another's, and a put above the cap must still arrive.
func TestWindowConcurrentPutsAroundCap(t *testing.T) {
	sizes := []int{MaxPutBytes, MaxPutBytes + 1, 1, MaxPutBytes - 1, 4096, MaxPutBytes}
	var total int
	for _, s := range sizes {
		total += s
	}
	want := make([]byte, total)
	for i := range want {
		want[i] = byte(i * 31)
	}
	runTCP(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			win := OpenWindow(c, int64(total), 1)
			buf, err := win.Wait()
			if err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("window content corrupted")
			}
			return nil
		}
		win := OpenWindow(c, 0, 1)
		errs := make(chan error, len(sizes))
		off := 0
		for _, s := range sizes {
			go func(off, s int) { errs <- win.Put(0, int64(off), want[off:off+s]) }(off, s)
			off += s
		}
		for range sizes {
			if err := <-errs; err != nil {
				return err
			}
		}
		if st := win.Stats(); st.Puts != len(sizes) || st.PutBytes != int64(total) {
			return fmt.Errorf("window stats %+v, want %d puts / %d bytes", st, len(sizes), total)
		}
		return nil
	})
}
