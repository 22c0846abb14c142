package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"dedupcr/internal/metrics"
)

// Wire versions tag each encoded record so a mixed-version group fails
// loudly instead of mis-decoding. Each codec reads and writes its one
// version; frames of any other version are refused, not migrated.
const (
	dumpWireVersion    = 4
	restoreWireVersion = 4
	storeWireVersion   = 1
)

// codec describes one per-rank record on the wire: a version byte, then
// the fields its layout walks. The one layout function serves both
// directions, so the encoder and the decoder cannot drift apart.
type codec[T any] struct {
	kind    string
	version byte
	layout  func(*wire, *T)
	rank    func(*T) int
}

var (
	dumpCodec = codec[metrics.Dump]{"dump", dumpWireVersion,
		dumpLayout, func(d *metrics.Dump) int { return d.Rank }}
	restoreCodec = codec[metrics.Restore]{"restore", restoreWireVersion,
		restoreLayout, func(r *metrics.Restore) int { return r.Rank }}
	storeCodec = codec[metrics.StoreStats]{"store", storeWireVersion,
		storeLayout, func(s *metrics.StoreStats) int { return s.Rank }}
)

// dumpLayout: the fixed counters and phase durations (in
// metrics.PhaseNames order, then Total) as big-endian int64s, the per-round and per-worker duration slices, the barrier-exit
// wall stamp and the put-latency histogram.
func dumpLayout(w *wire, d *metrics.Dump) {
	w.ints(&d.Rank, &d.DatasetBytes, &d.TotalChunks, &d.LocalUniqueChunks, &d.HashedBytes,
		&d.StoredChunks, &d.StoredBytes, &d.SentChunks, &d.SentBytes, &d.RecvChunks, &d.RecvBytes,
		&d.ReductionBytes, &d.ReductionRounds, &d.LoadExchangeBytes, &d.WindowBytes,
		&d.UniqueContentBytes)
	p := &d.Phases
	for _, name := range metrics.PhaseNames {
		num(w, p.Slot(name))
	}
	num(w, &p.Total)
	list(w, &p.ReductionRoundTimes)
	list(w, &p.FingerprintWorkers)
	list(w, &p.PutWorkers)
	w.stamp(&d.BarrierExit)
	w.hist(&d.PutLatency)
}

// restoreLayout: the fixed counters and phase durations (in
// metrics.RestorePhaseNames order, then Total), the per-peer
// rows of the fetch traffic matrix, the barrier-exit wall stamp and the
// run-length, fetch-latency and store-read-latency histograms.
func restoreLayout(w *wire, r *metrics.Restore) {
	w.ints(&r.Rank, &r.LogicalBytes, &r.TotalChunks, &r.UniqueChunks, &r.LocalChunks,
		&r.LocalBytes, &r.FetchedChunks, &r.FetchedBytes, &r.FetchRequests, &r.FetchMisses,
		&r.MetaFetches, &r.SourceRanks, &r.ObjectsTouched, &r.LargestRun)
	p := &r.Phases
	for _, name := range metrics.RestorePhaseNames {
		num(w, p.Slot(name))
	}
	num(w, &p.Total)
	list(w, &r.PeerFetchChunks)
	list(w, &r.PeerFetchBytes)
	w.stamp(&r.BarrierExit)
	w.hist(&r.RunLengths)
	w.hist(&r.FetchLatency)
	w.hist(&r.StoreReadLatency)
}

// storeLayout: the rank and the 15 gauges and counters, in struct order.
func storeLayout(w *wire, s *metrics.StoreStats) {
	w.ints(&s.Rank, &s.Segments, &s.SealedSegments, &s.LiveChunks, &s.LiveBytes,
		&s.DataBytes, &s.GarbageBytes, &s.Gen, &s.Seals, &s.Commits, &s.Compactions,
		&s.SegmentsCompacted, &s.TombstonedBytes, &s.ReclaimedBytes, &s.CopiedBytes, &s.CopiedChunks)
}

// EncodeDump serializes one rank's dump metrics for the in-band gather.
func EncodeDump(d metrics.Dump) ([]byte, error) { return dumpCodec.encode(d) }

// DecodeDump reverses EncodeDump.
func DecodeDump(data []byte) (metrics.Dump, error) { return dumpCodec.decode(data) }

// EncodeRestore serializes one rank's restore metrics for the in-band
// gather.
func EncodeRestore(r metrics.Restore) ([]byte, error) { return restoreCodec.encode(r) }

// DecodeRestore reverses EncodeRestore.
func DecodeRestore(data []byte) (metrics.Restore, error) { return restoreCodec.decode(data) }

// EncodeStoreStats serializes one rank's store snapshot for the in-band
// gather.
func EncodeStoreStats(s metrics.StoreStats) ([]byte, error) { return storeCodec.encode(s) }

// DecodeStoreStats reverses EncodeStoreStats.
func DecodeStoreStats(data []byte) (metrics.StoreStats, error) { return storeCodec.decode(data) }

func (c codec[T]) encode(v T) ([]byte, error) {
	w := wire{buf: []byte{c.version}}
	c.layout(&w, &v)
	if w.err != nil {
		return nil, fmt.Errorf("telemetry: encode %s: %w", c.kind, w.err)
	}
	return w.buf, nil
}

// decode is strict: every length prefix is bounds-checked against the
// remaining input before any allocation, and trailing bytes are refused.
func (c codec[T]) decode(data []byte) (T, error) {
	var v, zero T
	if len(data) == 0 {
		return zero, fmt.Errorf("telemetry: empty %s encoding", c.kind)
	}
	if data[0] != c.version {
		return zero, fmt.Errorf("telemetry: %s wire version %d, want %d", c.kind, data[0], c.version)
	}
	w := wire{buf: data[1:], dec: true}
	c.layout(&w, &v)
	switch {
	case errors.Is(w.err, errTruncated):
		return zero, fmt.Errorf("telemetry: truncated %s encoding", c.kind)
	case w.err != nil:
		return zero, fmt.Errorf("telemetry: decode %s: %w", c.kind, w.err)
	case len(w.buf) != 0:
		return zero, fmt.Errorf("telemetry: %d trailing bytes after %s encoding", len(w.buf), c.kind)
	}
	return v, nil
}

// wire is one pass of a layout over a record: encoding appends each field
// to buf, decoding (dec) consumes it from buf and stores it through the
// field's pointer. The first failure sticks in err and turns every later
// step into a no-op.
type wire struct {
	buf []byte
	dec bool
	err error
}

var errTruncated = errors.New("truncated")

// take consumes the next n bytes of a decode, or fails it as truncated.
func (w *wire) take(n int) []byte {
	if w.err == nil && len(w.buf) < n {
		w.err = errTruncated
	}
	if w.err != nil {
		return nil
	}
	b := w.buf[:n]
	w.buf = w.buf[n:]
	return b
}

func (w *wire) u32(v *uint32) {
	if !w.dec {
		w.buf = binary.BigEndian.AppendUint32(w.buf, *v)
	} else if b := w.take(4); b != nil {
		*v = binary.BigEndian.Uint32(b)
	}
}

// num moves one integer field as a big-endian int64.
func num[T ~int | ~int64](w *wire, v *T) {
	if !w.dec {
		w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(*v))
	} else if b := w.take(8); b != nil {
		*v = T(binary.BigEndian.Uint64(b))
	}
}

// ints moves a run of int and int64 fields.
func (w *wire) ints(fields ...any) {
	for _, f := range fields {
		switch f := f.(type) {
		case *int:
			num(w, f)
		case *int64:
			num(w, f)
		default:
			panic(fmt.Sprintf("telemetry: no wire form for %T", f))
		}
	}
}

// list moves a uint32 count and that many int64 words; an empty list
// decodes as nil.
func list[T ~int64](w *wire, s *[]T) {
	n := uint32(len(*s))
	w.u32(&n)
	if !w.dec {
		for _, v := range *s {
			w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(v))
		}
		return
	}
	b := w.take(8 * int(n))
	if w.err != nil || n == 0 {
		return
	}
	out := make([]T, len(b)/8)
	for i := range out {
		out[i] = T(binary.BigEndian.Uint64(b[8*i:]))
	}
	*s = out
}

// stamp moves a wall-clock instant as unix nanoseconds, 0 for the zero
// time.
func (w *wire) stamp(t *time.Time) {
	var ns int64
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	num(w, &ns)
	if w.dec && ns != 0 {
		*t = time.Unix(0, ns)
	}
}

// hist moves an optional histogram: a presence byte, then a uint32
// length and the histogram's own binary form.
func (w *wire) hist(h **metrics.Histogram) {
	if !w.dec {
		if *h == nil {
			w.buf = append(w.buf, 0)
			return
		}
		hb, err := (*h).MarshalBinary()
		if err != nil {
			w.err = fmt.Errorf("histogram: %w", err)
			return
		}
		w.buf = append(w.buf, 1)
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(len(hb)))
		w.buf = append(w.buf, hb...)
		return
	}
	flag := w.take(1)
	if w.err != nil || flag[0] == 0 {
		return
	}
	if flag[0] != 1 {
		w.err = fmt.Errorf("bad histogram flag %d", flag[0])
		return
	}
	var n uint32
	w.u32(&n)
	b := w.take(int(n))
	if w.err != nil {
		return
	}
	*h = metrics.NewHistogram()
	if err := (*h).UnmarshalBinary(b); err != nil {
		w.err = fmt.Errorf("histogram: %w", err)
	}
}
