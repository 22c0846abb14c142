package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dedupcr/internal/metrics"
)

// fullDump builds a dump with every field populated, histogram included.
func fullDump(rank int) metrics.Dump {
	h := metrics.NewHistogram()
	for _, v := range []int64{900, 12_000, 47_000, 2_000_000, 150_000_000} {
		h.Record(v)
	}
	return metrics.Dump{
		Rank: rank, DatasetBytes: 1 << 20, TotalChunks: 256, LocalUniqueChunks: 200,
		HashedBytes: 1 << 20, StoredChunks: 210, StoredBytes: 860_000,
		SentChunks: 120, SentBytes: 490_000, RecvChunks: 118, RecvBytes: 480_000,
		ReductionBytes: 65_000, ReductionRounds: 3, LoadExchangeBytes: 2_048,
		WindowBytes: 500_000, UniqueContentBytes: 820_000,
		Phases: metrics.Phases{
			Chunking: time.Millisecond, Fingerprint: 2 * time.Millisecond,
			LocalDedup: 300 * time.Microsecond, Reduction: 4 * time.Millisecond,
			ReductionRoundTimes: []time.Duration{2 * time.Millisecond, 1500 * time.Microsecond},
			FingerprintWorkers:  []time.Duration{time.Millisecond, 900 * time.Microsecond},
			PutWorkers:          []time.Duration{2 * time.Millisecond},
			LoadExchange:        time.Millisecond, Planning: 200 * time.Microsecond,
			WindowOpen: 50 * time.Microsecond, Put: 3 * time.Millisecond,
			WindowWait: 2 * time.Millisecond, Commit: time.Millisecond,
			Barrier: 400 * time.Microsecond, Total: 16 * time.Millisecond,
		},
		BarrierExit: time.Unix(1700000000, 123456789),
		PutLatency:  h,
	}
}

func TestDumpWireRoundTrip(t *testing.T) {
	in := fullDump(3)
	enc, err := EncodeDump(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeDump(enc)
	if err != nil {
		t.Fatal(err)
	}

	// Compare everything except the histogram pointer field-wise.
	inCmp, outCmp := in, out
	inCmp.PutLatency, outCmp.PutLatency = nil, nil
	if inCmp.Rank != outCmp.Rank || inCmp.SentBytes != outCmp.SentBytes ||
		inCmp.Phases.Put != outCmp.Phases.Put ||
		inCmp.UniqueContentBytes != outCmp.UniqueContentBytes ||
		!inCmp.BarrierExit.Equal(outCmp.BarrierExit) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", inCmp, outCmp)
	}
	if got, want := len(out.Phases.ReductionRoundTimes), 2; got != want {
		t.Fatalf("reduction rounds: got %d, want %d", got, want)
	}
	if out.Phases.ReductionRoundTimes[1] != 1500*time.Microsecond {
		t.Errorf("round time mismatch: %v", out.Phases.ReductionRoundTimes)
	}
	if got, want := len(out.Phases.PutWorkers), 1; got != want {
		t.Fatalf("put workers: got %d, want %d", got, want)
	}
	if out.PutLatency == nil {
		t.Fatal("histogram lost in round trip")
	}
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got, want := out.PutLatency.Quantile(q), in.PutLatency.Quantile(q); got != want {
			t.Errorf("q%.2f: got %d, want %d", q, got, want)
		}
	}
	if out.PutLatency.Count() != in.PutLatency.Count() || out.PutLatency.Sum() != in.PutLatency.Sum() {
		t.Errorf("histogram count/sum mismatch")
	}

	// Every optional arm of the layout, on and off. Each row must be a
	// fixed point of decode + re-encode, so neither side can drop, swap
	// or misplace a field the other one carries.
	for _, tc := range []struct {
		name string
		d    metrics.Dump
	}{
		{"full", in},
		{"zero", metrics.Dump{}},
		{"time-only", metrics.Dump{Rank: 1, BarrierExit: in.BarrierExit}},
		{"histogram-only", metrics.Dump{Rank: 2, PutLatency: in.PutLatency}},
		{"workers-only", metrics.Dump{Phases: metrics.Phases{PutWorkers: in.Phases.PutWorkers}}},
	} {
		enc, err := EncodeDump(tc.d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dec, err := DecodeDump(enc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (dec.PutLatency == nil) != (tc.d.PutLatency == nil) || dec.BarrierExit.IsZero() != tc.d.BarrierExit.IsZero() {
			t.Errorf("%s: optional field changed presence: %+v", tc.name, dec)
		}
		if re, err := EncodeDump(dec); err != nil || !bytes.Equal(re, enc) {
			t.Errorf("%s: decode + re-encode is not a fixed point (%v)", tc.name, err)
		}
	}
}

func TestDumpWireNilHistogramAndZeroTime(t *testing.T) {
	in := metrics.Dump{Rank: 0}
	enc, err := EncodeDump(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeDump(enc)
	if err != nil {
		t.Fatal(err)
	}
	if out.PutLatency != nil {
		t.Error("nil histogram decoded as non-nil")
	}
	if !out.BarrierExit.IsZero() {
		t.Errorf("zero barrier exit decoded as %v", out.BarrierExit)
	}
}

func TestDumpWireRejects(t *testing.T) {
	enc, err := EncodeDump(fullDump(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDump(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := DecodeDump(append([]byte{99}, enc[1:]...)); err == nil {
		t.Error("wrong version accepted")
	}
	// A v3 frame carried one more counter (put retries); it is refused by
	// its version byte, like any version but the one written.
	_, err = DecodeDump(append([]byte{3}, enc[1:]...))
	if err == nil || !strings.Contains(err.Error(), "dump wire version 3, want 4") {
		t.Errorf("v3 frame: got %v, want the version error", err)
	}
	for _, cut := range []int{1, 8, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeDump(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeDump(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}
