package collectives

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// drainAll collects every payload Next hands out until io.EOF or an
// error, checking each against its checksum.
func drainAll(win *Window) ([][]byte, error) {
	var out [][]byte
	for {
		p, sum, err := win.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if Checksum(0, p) != sum {
			return out, fmt.Errorf("payload %q does not match its checksum", p)
		}
		out = append(out, p)
	}
}

// TestWindowDrainOutOfOrder: frames from two senders, one of them putting
// its region back to front, are handed out in window-offset order on both
// transports, one payload per put, however they arrived.
func TestWindowDrainOutOfOrder(t *testing.T) {
	want := []byte("aaaabbbbccccddddeeeeffffgg")
	body := func(c Comm) error {
		var size int64
		if c.Rank() == 0 {
			size = int64(len(want))
		}
		win := OpenWindow(c, size, 1)
		switch c.Rank() {
		case 0:
			got, err := drainAll(win)
			if err != nil {
				return err
			}
			if len(got) != 7 || !bytes.Equal(bytes.Join(got, nil), want) {
				return fmt.Errorf("drained %q, want %q in 7 puts", got, want)
			}
		case 1:
			for off := 12; off >= 0; off -= 4 {
				if err := win.Put(0, int64(off), want[off:off+4]); err != nil {
					return err
				}
			}
		case 2:
			for _, off := range []int{24, 16, 20} {
				end := min(off+4, len(want))
				if err := win.Put(0, int64(off), want[off:end]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	t.Run("inproc", func(t *testing.T) {
		if err := Run(3, body); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("tcp", func(t *testing.T) { runTCP(t, 3, body) })
}

// TestWindowDrainRejects: a hand-built sender's frames that fall outside
// the window, land on bytes already handed out, repeat an offset or
// overlap a held put, or carry no offset at all fail the drain.
func TestWindowDrainRejects(t *testing.T) {
	type put struct {
		off  int64
		data string
	}
	for _, tc := range []struct {
		name string
		puts []put
		ok   int // payloads handed out before the error
		err  string
	}{
		{"duplicate offset", []put{{4, "bbbb"}, {4, "bbbb"}}, 0, "overlaps an earlier put"},
		{"overlaps the next held put", []put{{4, "bbbb"}, {2, "cccc"}}, 0, "overlaps an earlier put"},
		{"overlaps the previous held put", []put{{4, "bbbb"}, {6, "cccc"}}, 0, "overlaps an earlier put"},
		{"already drained", []put{{0, "aaaa"}, {2, "xx"}}, 1, "overlaps an earlier put"},
		{"beyond the window", []put{{10, "abcd"}}, 0, "exceeds window of 12 bytes"},
		{"negative offset", []put{{-1, "a"}}, 0, "exceeds window of 12 bytes"},
		{"no offset header", []put{{-2, ""}}, 0, "malformed window frame"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := Run(2, func(c Comm) error {
				if c.Rank() == 1 {
					for _, p := range tc.puts {
						frame := binary.BigEndian.AppendUint64(nil, uint64(p.off))
						frame = binary.BigEndian.AppendUint32(frame, Checksum(0, []byte(p.data)))
						if p.off == -2 {
							frame = frame[:3]
						}
						if err := c.Send(0, windowTag(1), append(frame, p.data...)); err != nil {
							return err
						}
					}
					// Queued frames stay deliverable; a drain that accepted
					// them all fails on the dead sender instead of hanging.
					Kill(c, errors.New("sender done"))
					return nil
				}
				got, err := drainAll(OpenWindow(c, 12, 1))
				if err == nil || !strings.Contains(err.Error(), tc.err) || len(got) != tc.ok {
					return fmt.Errorf("handed out %d payloads, then %v; want %d, then an error containing %q", len(got), err, tc.ok, tc.err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWindowWaitChecksSums: Next hands out a frame's checksum as its
// sender stamped it, and Wait fails with ErrChecksum on a payload that
// changed after the sum was taken.
func TestWindowWaitChecksSums(t *testing.T) {
	err := Run(2, func(c Comm) error {
		if c.Rank() == 1 {
			frame := binary.BigEndian.AppendUint64(nil, 0)
			frame = binary.BigEndian.AppendUint32(frame, Checksum(0, []byte("abcd")))
			return c.Send(0, windowTag(1), append(frame, "abce"...))
		}
		if _, err := OpenWindow(c, 4, 1).Wait(); !errors.Is(err, ErrChecksum) {
			return fmt.Errorf("Wait over a changed payload: %v, want ErrChecksum", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWindowDrainEmpty: an empty window is complete before anything
// arrives, for every call.
func TestWindowDrainEmpty(t *testing.T) {
	err := Run(1, func(c Comm) error {
		win := OpenWindow(c, 0, 1)
		for i := 0; i < 2; i++ {
			if p, _, err := win.Next(); err != io.EOF || p != nil {
				return fmt.Errorf("call %d: %q, %v; want io.EOF", i, p, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWindowHandoverOwnership: in process, the payload the owner drains
// is the very buffer the sender handed over — no copy on the way — and
// the owner may write to it while the sender builds its next frame (the
// race detector checks that the sender never touches a handed-over
// frame). Through the fault-injection wrapper the put falls back to the
// copying Send: an injected failure gives the frame back to the free list,
// the sender puts a fresh one, and the owner gets a copy. Either way the
// owner gets the checksum the sender stamped, as given.
func TestWindowHandoverOwnership(t *testing.T) {
	const puts = 64
	for _, faulty := range []bool{false, true} {
		t.Run(fmt.Sprintf("faulty=%v", faulty), func(t *testing.T) {
			sent := make(chan *byte, puts)
			err := Run(2, func(c Comm) error {
				if faulty {
					c = InjectFaults(c, FaultPlan{Faults: []Fault{
						{Kind: FaultError, Rank: 1, Peer: AnyRank, Times: 1},
					}})
				}
				var size int64
				if c.Rank() == 0 {
					size = puts * 16
				}
				win := OpenWindow(c, size, 1)
				if c.Rank() == 1 {
					for i := 0; i < puts; i++ {
						frame := append(win.NewFrame(16), bytes.Repeat([]byte{byte(i)}, 16)...)
						sent <- &frame[putHeader]
						err := win.PutFrame(0, int64(i*16), frame, uint32(1000+i))
						if i == 0 && faulty {
							if !errors.Is(err, ErrInjected) {
								return fmt.Errorf("first put: %v, want the injected failure", err)
							}
							if frame[putHeader] != poisonByte {
								return errors.New("the failed put did not give its frame back")
							}
							frame = append(win.NewFrame(16), bytes.Repeat([]byte{0}, 16)...)
							err = win.PutFrame(0, 0, frame, 1000)
						}
						if err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < puts; i++ {
					p, sum, err := win.Next()
					if err != nil {
						return err
					}
					if !bytes.Equal(p, bytes.Repeat([]byte{byte(i)}, 16)) || sum != uint32(1000+i) {
						return fmt.Errorf("put %d drained as %v with sum %d", i, p, sum)
					}
					if aliased := &p[0] == <-sent; aliased == faulty {
						return fmt.Errorf("put %d: payload aliases the sender's frame: %v, want %v", i, aliased, !faulty)
					}
					for j := range p {
						p[j] = 0xff
					}
				}
				if _, _, err := win.Next(); err != io.EOF {
					return fmt.Errorf("complete window: %v, want io.EOF", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
