// Package collectives is a minimal stub of the real transport package:
// just enough surface for the phaseattr fixtures to type-check. The
// analyzer matches it by path suffix, exactly like the real package.
package collectives

// Comm is the stub communicator.
type Comm interface {
	Rank() int
	Size() int
}

// NotePhase publishes the current pipeline phase.
func NotePhase(c Comm, phase string) {}

// Barrier blocks until every rank arrives.
func Barrier(c Comm) error { return nil }

// Gather collects every rank's payload at root.
func Gather(c Comm, root int, data []byte) ([][]byte, error) { return nil, nil }

// Window is the stub one-sided window.
type Window struct{}

// Wait blocks until every outstanding put landed.
func (w *Window) Wait() error { return nil }

// Next blocks until the next put in offset order landed.
func (w *Window) Next() ([]byte, error) { return nil, nil }
