package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"dedupcr/internal/metrics"
)

// fullRestore builds a restore with every field populated, all three
// histograms included.
func fullRestore(rank int) metrics.Restore {
	runs := metrics.NewHistogram()
	for _, v := range []int64{1, 1, 2, 7, 64, 256} {
		runs.Record(v)
	}
	fetch := metrics.NewHistogram()
	for _, v := range []int64{40_000, 90_000, 2_000_000} {
		fetch.Record(v)
	}
	reads := metrics.NewHistogram()
	for _, v := range []int64{700, 1_200, 55_000} {
		reads.Record(v)
	}
	return metrics.Restore{
		Rank: rank, LogicalBytes: 1 << 20, TotalChunks: 256, UniqueChunks: 240,
		LocalChunks: 150, LocalBytes: 600_000, FetchedChunks: 106, FetchedBytes: 448_576,
		FetchRequests: 110, FetchMisses: 4, MetaFetches: 1,
		SourceRanks: 5, ObjectsTouched: 161, LargestRun: 256,
		PeerFetchChunks: []int64{0, 40, 66}, PeerFetchBytes: []int64{0, 160_000, 288_576},
		Phases: metrics.RestorePhases{
			Meta: 300 * time.Microsecond, Assemble: 9 * time.Millisecond,
			Fetch: 6 * time.Millisecond, Commit: time.Millisecond,
			Barrier: 700 * time.Microsecond, Total: 11 * time.Millisecond,
		},
		BarrierExit:      time.Unix(1700000000, 987654321),
		RunLengths:       runs,
		FetchLatency:     fetch,
		StoreReadLatency: reads,
	}
}

func TestRestoreWireRoundTrip(t *testing.T) {
	in := fullRestore(4)
	enc, err := EncodeRestore(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRestore(enc)
	if err != nil {
		t.Fatal(err)
	}

	// Compare every scalar field and the phases; the histograms, the peer
	// matrix and the wall stamp are checked separately below.
	inCmp, outCmp := in, out
	inCmp.RunLengths, outCmp.RunLengths = nil, nil
	inCmp.FetchLatency, outCmp.FetchLatency = nil, nil
	inCmp.StoreReadLatency, outCmp.StoreReadLatency = nil, nil
	inCmp.PeerFetchChunks, outCmp.PeerFetchChunks = nil, nil
	inCmp.PeerFetchBytes, outCmp.PeerFetchBytes = nil, nil
	inCmp.BarrierExit, outCmp.BarrierExit = time.Time{}, time.Time{}
	if !reflect.DeepEqual(inCmp, outCmp) || !in.BarrierExit.Equal(out.BarrierExit) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
	if len(out.PeerFetchChunks) != 3 || out.PeerFetchChunks[2] != 66 ||
		len(out.PeerFetchBytes) != 3 || out.PeerFetchBytes[1] != 160_000 {
		t.Fatalf("peer matrix mismatch: %v / %v", out.PeerFetchChunks, out.PeerFetchBytes)
	}
	for i, pair := range []struct{ in, out *metrics.Histogram }{
		{in.RunLengths, out.RunLengths},
		{in.FetchLatency, out.FetchLatency},
		{in.StoreReadLatency, out.StoreReadLatency},
	} {
		if pair.out == nil {
			t.Fatalf("histogram %d lost in round trip", i)
		}
		if pair.out.Count() != pair.in.Count() || pair.out.Sum() != pair.in.Sum() {
			t.Errorf("histogram %d count/sum mismatch", i)
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got, want := pair.out.Quantile(q), pair.in.Quantile(q); got != want {
				t.Errorf("histogram %d q%.2f: got %d, want %d", i, q, got, want)
			}
		}
	}
	if got, want := out.ReadAmplificationBytes(), in.ReadAmplificationBytes(); got != want {
		t.Errorf("read amplification: got %g, want %g", got, want)
	}

	// Every optional arm of the layout, on and off, each a fixed point
	// of decode + re-encode (see TestDumpWireRoundTrip).
	for _, tc := range []struct {
		name string
		r    metrics.Restore
	}{
		{"full", in},
		{"zero", metrics.Restore{}},
		{"time-only", metrics.Restore{Rank: 1, BarrierExit: in.BarrierExit}},
		{"peers-only", metrics.Restore{PeerFetchChunks: in.PeerFetchChunks, PeerFetchBytes: in.PeerFetchBytes}},
		{"runs-only", metrics.Restore{RunLengths: in.RunLengths}},
		{"fetch-latency-only", metrics.Restore{FetchLatency: in.FetchLatency}},
		{"read-latency-only", metrics.Restore{StoreReadLatency: in.StoreReadLatency}},
	} {
		enc, err := EncodeRestore(tc.r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dec, err := DecodeRestore(enc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (dec.RunLengths == nil) != (tc.r.RunLengths == nil) ||
			(dec.FetchLatency == nil) != (tc.r.FetchLatency == nil) ||
			(dec.StoreReadLatency == nil) != (tc.r.StoreReadLatency == nil) ||
			dec.BarrierExit.IsZero() != tc.r.BarrierExit.IsZero() ||
			len(dec.PeerFetchChunks) != len(tc.r.PeerFetchChunks) {
			t.Errorf("%s: optional field changed presence: %+v", tc.name, dec)
		}
		if re, err := EncodeRestore(dec); err != nil || !bytes.Equal(re, enc) {
			t.Errorf("%s: decode + re-encode is not a fixed point (%v)", tc.name, err)
		}
	}
}

func TestRestoreWireNilHistogramsAndZeroTime(t *testing.T) {
	in := metrics.Restore{Rank: 0}
	enc, err := EncodeRestore(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRestore(enc)
	if err != nil {
		t.Fatal(err)
	}
	if out.RunLengths != nil || out.FetchLatency != nil || out.StoreReadLatency != nil {
		t.Error("nil histogram decoded as non-nil")
	}
	if !out.BarrierExit.IsZero() {
		t.Errorf("zero barrier exit decoded as %v", out.BarrierExit)
	}
	if out.PeerFetchChunks != nil || out.PeerFetchBytes != nil {
		t.Error("empty peer matrix decoded as non-nil")
	}
}

func TestRestoreWireRejects(t *testing.T) {
	enc, err := EncodeRestore(fullRestore(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRestore(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := DecodeRestore(append([]byte{99}, enc[1:]...)); err == nil {
		t.Error("wrong version accepted")
	}
	// The restore codec is new in wire v3: a v2 version byte has no
	// restore payload to carry and must be rejected, not guessed at.
	if _, err := DecodeRestore(append([]byte{2}, enc[1:]...)); err == nil {
		t.Error("v2 version byte accepted on the restore codec")
	}
	// A genuine v3 frame (with the recovered-chunk counter and the
	// reconstruction phase) is refused by its version byte, not migrated.
	_, err = DecodeRestore(encodeRestoreV3(t, fullRestore(1)))
	if err == nil || !strings.Contains(err.Error(), "restore wire version 3, want 4") {
		t.Errorf("v3 frame: got %v, want the version error", err)
	}
	for _, cut := range []int{1, 8, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeRestore(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeRestore(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// encodeRestoreV3 builds the v3 layout of r: the v4 encoding with a zero
// recovered-chunk counter after MetaFetches and a zero reconstruction
// phase after Fetch.
func encodeRestoreV3(t testing.TB, r metrics.Restore) []byte {
	t.Helper()
	v4, err := EncodeRestore(r)
	if err != nil {
		t.Fatal(err)
	}
	const counterAt = 1 + 11*8     // version byte, Rank..MetaFetches
	const phaseAt = 1 + 14*8 + 3*8 // every counter, Meta, Assemble, Fetch
	zero := make([]byte, 8)
	v3 := append([]byte{3}, v4[1:counterAt]...)
	v3 = append(v3, zero...)
	v3 = append(v3, v4[counterAt:phaseAt]...)
	v3 = append(v3, zero...)
	return append(v3, v4[phaseAt:]...)
}

// TestRestoreEncodingByteIdentical pins the restore wire encoding the
// same way TestDumpEncodingByteIdentical pins the dump's: 100
// independently built restores of the same metrics must encode to the
// same bytes.
func TestRestoreEncodingByteIdentical(t *testing.T) {
	want, err := EncodeRestore(fullRestore(3))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 100; run++ {
		got, err := EncodeRestore(fullRestore(3))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: encoding differs (%d vs %d bytes)", run, len(got), len(want))
		}
	}
}

// FuzzRestoreMetricsDecode drives the restore telemetry decoder with
// arbitrary bytes: every length prefix arrives from peers and must be
// bounded before allocation, and any input that decodes must survive a
// re-encode cycle.
func FuzzRestoreMetricsDecode(f *testing.F) {
	valid, err := EncodeRestore(fullRestore(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:9])
	f.Add([]byte{})
	f.Add([]byte{restoreWireVersion})
	f.Add(encodeRestoreV3(f, fullRestore(1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRestore(data)
		if err != nil {
			return
		}
		enc, err := EncodeRestore(r)
		if err != nil {
			t.Fatalf("re-encode of decoded restore failed: %v", err)
		}
		if _, err := DecodeRestore(enc); err != nil {
			t.Fatalf("re-decode of re-encoded restore failed: %v", err)
		}
	})
}
