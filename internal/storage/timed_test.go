package storage

import (
	"errors"
	"testing"

	"dedupcr/internal/fingerprint"
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
	if _, _, err := ts.GetChunkSum(fp); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.GetBlob("recipe"); err != nil {
		t.Fatal(err)
	}
	if err := ts.ReleaseChunk(fp); err != nil {
		t.Fatal(err)
	}

	// 3 writes (PutChunk, PutBlob, ReleaseChunk), 3 reads (GetChunk,
	// GetChunkSum, GetBlob).
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
