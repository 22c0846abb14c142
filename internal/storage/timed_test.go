package storage

import (
	"errors"
	"math/rand"
	"testing"

	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
)

func TestTimedStoreRecordsLatencies(t *testing.T) {
	ts := NewTimed(NewMem())
	fp := fingerprint.Of([]byte("hello"))

	if err := ts.PutChunk(fp, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := ts.PutBlob("recipe", []byte("meta")); err != nil {
		t.Fatal(err)
	}
	data, err := ts.GetChunk(fp)
	if err != nil || string(data) != "hello" {
		t.Fatalf("GetChunk = %q, %v", data, err)
	}
	if ok, err := ts.HasChunk(fp); err != nil || !ok {
		t.Fatalf("HasChunk = %v, %v", ok, err)
	}
	if _, err := ts.GetBlob("recipe"); err != nil {
		t.Fatal(err)
	}
	if err := ts.ReleaseChunk(fp); err != nil {
		t.Fatal(err)
	}

	// 3 writes (PutChunk, PutBlob, ReleaseChunk), 3 reads (GetChunk,
	// HasChunk, GetBlob).
	if got := ts.WriteLatency().Count(); got != 3 {
		t.Errorf("write latency count = %d, want 3", got)
	}
	if got := ts.ReadLatency().Count(); got != 3 {
		t.Errorf("read latency count = %d, want 3", got)
	}
	if ts.WriteLatency().Max() < 0 || ts.ReadLatency().Max() < 0 {
		t.Error("negative latency recorded")
	}
}

// TestTimedReadLatencyMerges: each read lands in its own kind's
// histogram only, and ReadLatency is their merge — the count is the sum
// of the two kinds', and count, sum, max and every quantile equal those
// of one histogram fed all the samples.
func TestTimedReadLatencyMerges(t *testing.T) {
	ts := NewTimed(NewMem())
	fp := fingerprint.Of([]byte("c"))
	if err := ts.PutChunk(fp, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := ts.PutBlob("b", []byte("b")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ts.GetChunk(fp)
		ts.HasChunk(fp)
	}
	for i := 0; i < 3; i++ {
		ts.GetBlob("b")
	}
	ts.GetBlob("absent")
	chunks, blobs := ts.ChunkReadLatency().Count(), ts.BlobReadLatency().Count()
	if chunks != 10 || blobs != 4 {
		t.Fatalf("chunk reads %d, blob reads %d; want 10, 4", chunks, blobs)
	}
	if got := ts.ReadLatency().Count(); got != chunks+blobs {
		t.Fatalf("ReadLatency count %d, want %d + %d", got, chunks, blobs)
	}
	if got := ts.WriteLatency().Count(); got != 2 {
		t.Fatalf("write count %d, want 2", got)
	}

	// The merge against known samples, spread over many buckets.
	ts = NewTimed(NewMem())
	want := metrics.NewHistogram()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		v := rng.Int63n(1 << uint(1+rng.Intn(40)))
		want.Record(v)
		if i%3 == 0 {
			ts.blobRead.Record(v)
		} else {
			ts.chunkRead.Record(v)
		}
	}
	got := ts.ReadLatency()
	if got.Count() != want.Count() || got.Sum() != want.Sum() || got.Max() != want.Max() {
		t.Fatalf("merged count/sum/max %d/%d/%d, want %d/%d/%d",
			got.Count(), got.Sum(), got.Max(), want.Count(), want.Sum(), want.Max())
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Errorf("quantile %g = %d, want %d", q, g, w)
		}
	}
}

func TestTimedStoreDelegates(t *testing.T) {
	ts := NewTimed(NewMem())
	fp := fingerprint.Of([]byte("x"))
	if err := ts.PutChunk(fp, []byte("x")); err != nil {
		t.Fatal(err)
	}
	bytes, chunks := ts.Usage()
	if bytes != 1 || chunks != 1 {
		t.Errorf("Usage = %d bytes, %d chunks; want 1, 1", bytes, chunks)
	}
	if ts.Inner() == nil {
		t.Error("Inner is nil")
	}

	// Errors still record a sample and pass through unchanged.
	ts.Fail()
	if !ts.Failed() {
		t.Error("Failed = false after Fail")
	}
	before := ts.ReadLatency().Count()
	if _, err := ts.GetChunk(fp); !errors.Is(err, ErrFailed) {
		t.Errorf("GetChunk after Fail = %v, want ErrFailed", err)
	}
	if got := ts.ReadLatency().Count(); got != before+1 {
		t.Errorf("failed read not recorded: count %d, want %d", got, before+1)
	}
}
