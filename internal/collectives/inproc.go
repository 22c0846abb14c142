package collectives

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dedupcr/internal/obs"
)

// Group is an in-process communicator group: Size ranks living in one OS
// process, each driven by its own goroutine, exchanging messages through
// shared mailboxes. It simulates the paper's MPI job (hundreds of ranks)
// on a single machine.
type Group struct {
	size   int
	boxes  []*mailbox
	free   frameList // the buffers of put and fetch frames, shared by the ranks
	closed atomic.Bool
}

// NewGroup creates an in-process group of n ranks.
func NewGroup(n int) (*Group, error) {
	if n <= 0 {
		return nil, fmt.Errorf("collectives: group size %d must be positive", n)
	}
	g := &Group{size: n, boxes: make([]*mailbox, n)}
	for i := range g.boxes {
		g.boxes[i] = newMailbox(&g.free)
	}
	return g, nil
}

// Comm returns the communicator endpoint of the given rank.
func (g *Group) Comm(rank int) (*InprocComm, error) {
	if rank < 0 || rank >= g.size {
		return nil, fmt.Errorf("collectives: rank %d out of range [0,%d)", rank, g.size)
	}
	c := &InprocComm{group: g, rank: rank}
	c.initPeers(g.size)
	return c, nil
}

// Close shuts the group down; blocked receivers fail with ErrClosed.
func (g *Group) Close() error {
	if g.closed.CompareAndSwap(false, true) {
		for _, b := range g.boxes {
			b.close()
		}
		g.free.close()
	}
	return nil
}

// abortAll delivers the abort to every rank's mailbox: in process,
// failure dissemination is instantaneous.
func (g *Group) abortAll(e *CollectiveError) {
	for _, b := range g.boxes {
		b.abort(e)
	}
}

// failRank simulates the crash of one rank: its own mailbox aborts (the
// dead rank can do nothing anymore) and every peer marks it failed —
// queued messages from it stay deliverable, but any wait that depends on
// it errors out.
func (g *Group) failRank(rank int, e *CollectiveError) {
	for r, b := range g.boxes {
		if r == rank {
			b.abort(e)
		} else {
			b.failPeer(rank, e)
		}
	}
}

// InprocComm is one rank's endpoint into an in-process Group.
type InprocComm struct {
	group *Group
	rank  int
	seq   atomic.Uint32
	statsCounter
}

var _ Comm = (*InprocComm)(nil)
var _ aborter = (*InprocComm)(nil)
var _ killer = (*InprocComm)(nil)
var _ frameTaker = (*InprocComm)(nil)
var _ framer = (*InprocComm)(nil)

// Rank implements Comm.
func (c *InprocComm) Rank() int { return c.rank }

// Size implements Comm.
func (c *InprocComm) Size() int { return c.group.size }

// NextSeq implements Comm.
func (c *InprocComm) NextSeq() uint32 { return c.seq.Add(1) }

// Stats implements Comm.
func (c *InprocComm) Stats() Stats { return c.snapshot() }

func (c *InprocComm) frames() *frameList { return &c.group.free }

// abortComm implements the collective abort protocol for the in-process
// transport: every rank of the group observes the failure immediately.
func (c *InprocComm) abortComm(e *CollectiveError) {
	obs.Logf(obs.KindAbort, c.rank, e.Phase, 0, "abort (local): %v", e)
	c.group.abortAll(e)
}

// killComm simulates this rank's crash.
func (c *InprocComm) killComm(e *CollectiveError) {
	obs.Logf(obs.KindKill, c.rank, e.Phase, 0, "comm killed: %v", e)
	obs.Trigger(obs.Failure{
		Kind: "kill", Rank: c.rank, Ranks: e.Ranks, Phase: e.Phase, Cause: e.Error(),
	})
	c.group.failRank(c.rank, e)
}

// Send implements Comm. The payload is copied, so the caller may reuse
// data immediately (matching the TCP transport's semantics).
func (c *InprocComm) Send(to int, tag Tag, data []byte) error {
	return c.sendOwned(to, tag, append(make([]byte, 0, len(data)), data...))
}

// sendOwned implements frameTaker: the receiver gets msg itself.
func (c *InprocComm) sendOwned(to int, tag Tag, msg []byte) error {
	if err := checkPeer(c, to); err != nil {
		return err
	}
	if c.group.closed.Load() {
		return ErrClosed
	}
	// A dead or aborted rank stops sending: its peers either already
	// observed the failure or will, and failing fast here unblocks
	// collectives at their next step instead of their next receive.
	if e := c.group.boxes[c.rank].abortErr(); e != nil {
		return e
	}
	c.group.boxes[to].put(c.rank, tag, msg)
	if to != c.rank {
		c.countSend(to, len(msg))
	}
	return nil
}

// Recv implements Comm. The AnyRank wildcard is accepted for window tags.
func (c *InprocComm) Recv(from int, tag Tag) ([]byte, error) {
	if err := checkRecv(c, from, tag); err != nil {
		return nil, err
	}
	data, err := c.group.boxes[c.rank].get(from, tag)
	if err != nil {
		return nil, err
	}
	if from != c.rank {
		c.countRecv(from, len(data))
	}
	return data, nil
}

// Close implements Comm. Closing any rank's endpoint closes the group.
func (c *InprocComm) Close() error { return c.group.Close() }

// Run executes body once per rank on a fresh in-process group of n ranks,
// one goroutine per rank, and waits for all of them. It returns the first
// non-nil error (by rank order). The group is closed before Run returns.
func Run(n int, body func(Comm) error) error {
	return RunCtx(context.Background(), n, func(_ context.Context, c Comm) error {
		return body(c)
	})
}

// RunCtx is Run with cancellation: when ctx is cancelled the whole group
// aborts, so every rank blocked in a collective unblocks promptly with a
// typed *CollectiveError instead of deadlocking. The context is also
// passed to each rank's body for its own use.
func RunCtx(ctx context.Context, n int, body func(context.Context, Comm) error) error {
	g, err := NewGroup(n)
	if err != nil {
		return err
	}
	defer g.Close()

	stop := func() {}
	if ctx != nil && ctx.Done() != nil {
		watch := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				g.abortAll(&CollectiveError{Cause: context.Cause(ctx)})
			case <-watch:
			}
		}()
		var once sync.Once
		stop = func() { once.Do(func() { close(watch) }) }
	}
	defer stop()

	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		comm, err := g.Comm(r)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(rank int, c Comm) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("rank %d panicked: %v", rank, p)
					// Unblock peers stuck in Recv so Run terminates.
					g.Close()
				}
			}()
			errs[rank] = body(ctx, c)
		}(r, comm)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}
