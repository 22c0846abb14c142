package collectives

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Every frame buffer given back to a free list is overwritten, so a
// buffer given back while it is still read fails a test.
func init() { PoisonFrames() }

// readFrame reads one frame from a stream of its own, with free as its
// list.
func readFrame(r io.Reader, free *frameList) (Tag, []byte, *TraceContext, error) {
	return (&frameReader{r: r, free: free}).next()
}

// runTCP executes body once per rank over a local TCP group, mirroring
// Run for the socket transport.
func runTCP(t *testing.T, n int, body func(Comm) error) {
	t.Helper()
	comms, err := StartLocalTCP(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = body(comms[rank])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestTCPSendRecv(t *testing.T) {
	runTCP(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, []byte("over the wire"))
		}
		msg, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(msg) != "over the wire" {
			return fmt.Errorf("got %q", msg)
		}
		return nil
	})
}

func TestTCPLargeMessage(t *testing.T) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	runTCP(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, payload)
		}
		msg, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if !bytes.Equal(msg, payload) {
			return fmt.Errorf("1 MiB payload corrupted in transit")
		}
		return nil
	})
}

func TestTCPMessageOrder(t *testing.T) {
	runTCP(t, 2, func(c Comm) error {
		const n = 200
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				buf := make([]byte, 4)
				binary.BigEndian.PutUint32(buf, uint32(i))
				if err := c.Send(1, 2, buf); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			msg, err := c.Recv(0, 2)
			if err != nil {
				return err
			}
			if got := binary.BigEndian.Uint32(msg); got != uint32(i) {
				return fmt.Errorf("message %d arrived as %d", i, got)
			}
		}
		return nil
	})
}

func TestTCPSelfSend(t *testing.T) {
	runTCP(t, 1, func(c Comm) error {
		if err := c.Send(0, 3, []byte("loop")); err != nil {
			return err
		}
		msg, err := c.Recv(0, 3)
		if err != nil {
			return err
		}
		if string(msg) != "loop" {
			return fmt.Errorf("self-send got %q", msg)
		}
		return nil
	})
}

func TestTCPCollectives(t *testing.T) {
	runTCP(t, 5, func(c Comm) error {
		// Barrier, broadcast, allgather and allreduce must all work over
		// sockets exactly as in process.
		if err := Barrier(c); err != nil {
			return err
		}
		var in []byte
		if c.Rank() == 2 {
			in = []byte("tcp-bcast")
		}
		out, err := Bcast(c, 2, in)
		if err != nil {
			return err
		}
		if string(out) != "tcp-bcast" {
			return fmt.Errorf("bcast got %q", out)
		}
		blocks, err := Allgather(c, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		for r, b := range blocks {
			if len(b) != 1 || b[0] != byte(r) {
				return fmt.Errorf("allgather block %d = %v", r, b)
			}
		}
		mine := make([]byte, 8)
		binary.BigEndian.PutUint64(mine, uint64(c.Rank()+1))
		sum, err := Allreduce(c, mine, sumMerge)
		if err != nil {
			return err
		}
		if got := binary.BigEndian.Uint64(sum); got != 15 {
			return fmt.Errorf("allreduce = %d, want 15", got)
		}
		return nil
	})
}

func TestTCPWindow(t *testing.T) {
	// Rank 1 and 2 put into rank 0's window at planned offsets.
	runTCP(t, 3, func(c Comm) error {
		var size int64
		if c.Rank() == 0 {
			size = 8
		}
		win := OpenWindow(c, size, 1)
		switch c.Rank() {
		case 0:
			buf, err := win.Wait()
			if err != nil {
				return err
			}
			if string(buf) != "abcdWXYZ" {
				return fmt.Errorf("window content %q", buf)
			}
		case 1:
			if err := win.Put(0, 0, []byte("abcd")); err != nil {
				return err
			}
			if _, err := win.Wait(); err != nil {
				return err
			}
		case 2:
			if err := win.Put(0, 4, []byte("WXYZ")); err != nil {
				return err
			}
			if _, err := win.Wait(); err != nil {
				return err
			}
		}
		return Barrier(c)
	})
}

func TestTCPStats(t *testing.T) {
	runTCP(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, make([]byte, 64)); err != nil {
				return err
			}
			if got := c.Stats().BytesSent; got != 64 {
				return fmt.Errorf("BytesSent = %d, want 64", got)
			}
			return nil
		}
		if _, err := c.Recv(0, 1); err != nil {
			return err
		}
		if got := c.Stats().BytesRecv; got != 64 {
			return fmt.Errorf("BytesRecv = %d, want 64", got)
		}
		return nil
	})
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	comms, err := StartLocalTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := comms[0].Recv(1, 9)
		done <- err
	}()
	comms[0].Close()
	if err := <-done; err == nil {
		t.Fatal("Recv returned without error after Close")
	}
	comms[1].Close()
}

// TestTCPFailedWritesDropConcurrently: connections closed under
// concurrent sends fail the writes in flight, and each failed write drops
// its connection (dropSender) while other goroutines keep sending to the
// same peer through it or through a redialed one (sender). Run under
// -race, it checks that the connection table is only touched under the
// communicator's lock.
func TestTCPFailedWritesDropConcurrently(t *testing.T) {
	comms, err := StartLocalTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	const senders, rounds = 4, 100
	c := comms[0]
	// closeConn closes the current connection to rank 1, if any, as a
	// peer resetting it would.
	closeConn := func() {
		c.mu.Lock()
		s := c.conns[1]
		c.mu.Unlock()
		if s != nil {
			s.conn.Close()
		}
	}
	var failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				closeConn()
				runtime.Gosched()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Fails when its connection was closed under it; the
				// next send redials.
				if c.Send(1, 4, []byte("msg")) != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d of %d sends failed on a closed connection", failed.Load(), senders*rounds)
	// The loop may leave the current connection closed but not yet
	// written on: the first send here then fails and drops it.
	c.Send(1, 5, []byte("flush"))
	if err := c.Send(1, 5, []byte("before")); err != nil {
		t.Fatalf("send after the dropped connections: %v", err)
	}
	// Whatever the interleaving was, one write fails and drops its
	// connection here, and the send after it redials.
	closeConn()
	if c.Send(1, 5, []byte("lost")) == nil {
		t.Fatal("a send on a closed connection succeeded")
	}
	if err := c.Send(1, 5, []byte("after")); err != nil {
		t.Fatalf("send after the dropped connection: %v", err)
	}
}
