package telemetry

import (
	"encoding/binary"
	"fmt"
	"time"

	"dedupcr/internal/metrics"
)

// restoreWireVersion tags the binary layout of an encoded
// metrics.Restore. Frames of any other version, v3 included, are refused,
// not migrated.
const restoreWireVersion = 4

// EncodeRestore serializes one rank's restore metrics for the in-band
// gather: a version byte, the fixed counters and phase durations as
// big-endian int64s, the per-peer traffic-matrix row with a uint32
// length prefix, the barrier-exit wall stamp (unix nanoseconds, 0 when
// unset) and three optional histograms (run lengths, fetch latency,
// store read latency), each a flag byte + length-prefixed sparse
// encoding.
func EncodeRestore(r metrics.Restore) ([]byte, error) {
	var buf []byte
	i64 := func(v int64) { buf = binary.BigEndian.AppendUint64(buf, uint64(v)) }
	i64s := func(v []int64) {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		for _, x := range v {
			i64(x)
		}
	}
	hist := func(h *metrics.Histogram) error {
		if h == nil {
			buf = append(buf, 0)
			return nil
		}
		buf = append(buf, 1)
		hb, err := h.MarshalBinary()
		if err != nil {
			return err
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(hb)))
		buf = append(buf, hb...)
		return nil
	}

	buf = append(buf, restoreWireVersion)
	i64(int64(r.Rank))
	i64(r.LogicalBytes)
	i64(int64(r.TotalChunks))
	i64(int64(r.UniqueChunks))
	i64(int64(r.LocalChunks))
	i64(r.LocalBytes)
	i64(int64(r.FetchedChunks))
	i64(r.FetchedBytes)
	i64(r.FetchRequests)
	i64(r.FetchMisses)
	i64(int64(r.MetaFetches))
	i64(int64(r.SourceRanks))
	i64(int64(r.ObjectsTouched))
	i64(r.LargestRun)

	p := r.Phases
	for _, ph := range []time.Duration{
		p.Meta, p.Assemble, p.Fetch, p.Commit, p.Barrier, p.Total,
	} {
		i64(int64(ph))
	}

	i64s(r.PeerFetchChunks)
	i64s(r.PeerFetchBytes)

	if r.BarrierExit.IsZero() {
		i64(0)
	} else {
		i64(r.BarrierExit.UnixNano())
	}

	for _, h := range []*metrics.Histogram{r.RunLengths, r.FetchLatency, r.StoreReadLatency} {
		if err := hist(h); err != nil {
			return nil, fmt.Errorf("telemetry: encode restore histogram: %w", err)
		}
	}
	return buf, nil
}

// DecodeRestore reverses EncodeRestore. Decoding is strict: every length
// prefix is bounds-checked against the remaining input before any
// allocation, and trailing bytes are rejected.
func DecodeRestore(data []byte) (metrics.Restore, error) {
	var r metrics.Restore
	if len(data) == 0 {
		return r, fmt.Errorf("telemetry: empty restore encoding")
	}
	if data[0] != restoreWireVersion {
		return r, fmt.Errorf("telemetry: restore wire version %d, want %d", data[0], restoreWireVersion)
	}
	data = data[1:]
	fail := func() (metrics.Restore, error) {
		return metrics.Restore{}, fmt.Errorf("telemetry: truncated restore encoding")
	}
	i64 := func() (int64, bool) {
		if len(data) < 8 {
			return 0, false
		}
		v := int64(binary.BigEndian.Uint64(data))
		data = data[8:]
		return v, true
	}
	i64s := func() ([]int64, bool) {
		if len(data) < 4 {
			return nil, false
		}
		n := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		if n == 0 {
			return nil, true
		}
		if len(data) < 8*n {
			return nil, false
		}
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(binary.BigEndian.Uint64(data[8*i:]))
		}
		data = data[8*n:]
		return out, true
	}
	hist := func() (*metrics.Histogram, bool, error) {
		if len(data) < 1 {
			return nil, false, nil
		}
		flag := data[0]
		data = data[1:]
		switch flag {
		case 0:
			return nil, true, nil
		case 1:
			if len(data) < 4 {
				return nil, false, nil
			}
			n := int(binary.BigEndian.Uint32(data))
			data = data[4:]
			if len(data) < n {
				return nil, false, nil
			}
			h := metrics.NewHistogram()
			if err := h.UnmarshalBinary(data[:n]); err != nil {
				return nil, false, err
			}
			data = data[n:]
			return h, true, nil
		default:
			return nil, false, fmt.Errorf("telemetry: bad restore histogram flag %d", flag)
		}
	}

	ints := make([]int64, 14)
	for i := range ints {
		v, ok := i64()
		if !ok {
			return fail()
		}
		ints[i] = v
	}
	r.Rank = int(ints[0])
	r.LogicalBytes = ints[1]
	r.TotalChunks = int(ints[2])
	r.UniqueChunks = int(ints[3])
	r.LocalChunks = int(ints[4])
	r.LocalBytes = ints[5]
	r.FetchedChunks = int(ints[6])
	r.FetchedBytes = ints[7]
	r.FetchRequests = ints[8]
	r.FetchMisses = ints[9]
	r.MetaFetches = int(ints[10])
	r.SourceRanks = int(ints[11])
	r.ObjectsTouched = int(ints[12])
	r.LargestRun = ints[13]

	phases := make([]time.Duration, 6)
	for i := range phases {
		v, ok := i64()
		if !ok {
			return fail()
		}
		phases[i] = time.Duration(v)
	}
	p := &r.Phases
	p.Meta, p.Assemble, p.Fetch = phases[0], phases[1], phases[2]
	p.Commit, p.Barrier, p.Total = phases[3], phases[4], phases[5]

	var ok bool
	if r.PeerFetchChunks, ok = i64s(); !ok {
		return fail()
	}
	if r.PeerFetchBytes, ok = i64s(); !ok {
		return fail()
	}

	exit, ok := i64()
	if !ok {
		return fail()
	}
	if exit != 0 {
		r.BarrierExit = time.Unix(0, exit)
	}

	for _, dst := range []**metrics.Histogram{&r.RunLengths, &r.FetchLatency, &r.StoreReadLatency} {
		h, ok, err := hist()
		if err != nil {
			return metrics.Restore{}, fmt.Errorf("telemetry: decode restore histogram: %w", err)
		}
		if !ok {
			return fail()
		}
		*dst = h
	}
	if len(data) != 0 {
		return metrics.Restore{}, fmt.Errorf("telemetry: %d trailing bytes after restore encoding", len(data))
	}
	return r, nil
}
