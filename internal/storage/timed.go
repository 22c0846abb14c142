package storage

import (
	"time"

	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
)

// Timed wraps a Store and records the wall-clock latency of every chunk
// and blob operation into lock-free histograms (nanoseconds), splitting
// reads from writes — the device-level view that complements the
// pipeline's per-phase timings: a slow commit phase with fast store
// writes points at the transport, a slow one with slow writes at the
// disk.
type Timed struct {
	inner       Store
	read, write *metrics.Histogram
}

var _ Store = (*Timed)(nil)

// NewTimed wraps store with latency instrumentation.
func NewTimed(store Store) *Timed {
	return &Timed{inner: store, read: metrics.NewHistogram(), write: metrics.NewHistogram()}
}

// ReadLatency returns the histogram of GetChunk/GetChunkSum/ReadRecords/
// GetBlob latencies in nanoseconds, one sample per call: a ReadRecords
// batch is one sample, however many records it reads.
func (t *Timed) ReadLatency() *metrics.Histogram { return t.read }

// WriteLatency returns the histogram of PutChunk/PutChunkSum/PutRecords/
// ReleaseChunk/PutBlob/Commit latencies in nanoseconds, one sample per
// call: a PutRecords batch is one sample, however many records it puts.
func (t *Timed) WriteLatency() *metrics.Histogram { return t.write }

// Inner returns the wrapped store.
func (t *Timed) Inner() Store { return t.inner }

// clockOrigin anchors the clock Timed reads: time.Since of a monotonic
// time is one monotonic clock read, where time.Now reads the wall clock
// as well.
var clockOrigin = time.Now()

// now reads the monotonic clock.
func now() time.Duration { return time.Since(clockOrigin) }

// record adds the latency of an operation begun at start to h. Each
// operation defers it with start already evaluated: one clock read on
// entry, one on return.
func record(h *metrics.Histogram, start time.Duration) { h.Record(int64(now() - start)) }

func (t *Timed) PutChunk(fp fingerprint.FP, data []byte) error {
	defer record(t.write, now())
	return t.inner.PutChunk(fp, data)
}

func (t *Timed) PutChunkSum(fp fingerprint.FP, data []byte, sum uint32) error {
	defer record(t.write, now())
	return t.inner.PutChunkSum(fp, data, sum)
}

func (t *Timed) PutRecords(payload []byte, recs []Record) (int, bool, error) {
	defer record(t.write, now())
	return t.inner.PutRecords(payload, recs)
}

func (t *Timed) ReadRecords(dst []byte, recs []Record, errs []error) {
	defer record(t.read, now())
	t.inner.ReadRecords(dst, recs, errs)
}

func (t *Timed) GetChunk(fp fingerprint.FP) ([]byte, error) {
	defer record(t.read, now())
	return t.inner.GetChunk(fp)
}

func (t *Timed) GetChunkSum(fp fingerprint.FP) ([]byte, uint32, error) {
	defer record(t.read, now())
	return t.inner.GetChunkSum(fp)
}

func (t *Timed) ReleaseChunk(fp fingerprint.FP) error {
	defer record(t.write, now())
	return t.inner.ReleaseChunk(fp)
}

func (t *Timed) PutBlob(name string, data []byte) error {
	defer record(t.write, now())
	return t.inner.PutBlob(name, data)
}

func (t *Timed) GetBlob(name string) ([]byte, error) {
	defer record(t.read, now())
	return t.inner.GetBlob(name)
}

// Commit is timed as a write: manifest fsyncs are exactly the
// device-side cost the write histogram exists to surface.
func (t *Timed) Commit() error {
	defer record(t.write, now())
	return t.inner.Commit()
}

func (t *Timed) Usage() (int64, int) { return t.inner.Usage() }

func (t *Timed) Fail() { t.inner.Fail() }

func (t *Timed) Failed() bool { return t.inner.Failed() }
