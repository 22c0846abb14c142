package storage

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"dedupcr/internal/fingerprint"
)

// stores returns every implementation under a common label, so the
// conformance tests below run against all engines.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	seg, err := NewSeg(filepath.Join(t.TempDir(), "segnode"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMem(), "seg": seg}
}

func TestPutGetChunk(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("chunk-content")
			fp := fingerprint.Of(data)
			if err := s.PutChunk(fp, data); err != nil {
				t.Fatal(err)
			}
			got, err := s.GetChunk(fp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("got %q", got)
			}
			ok, err := s.HasChunk(fp)
			if err != nil || !ok {
				t.Fatalf("HasChunk = %v, %v", ok, err)
			}
			if _, err := s.GetChunk(fingerprint.Of([]byte("absent"))); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing chunk error = %v, want ErrNotFound", err)
			}
		})
	}
}

// TestChunkMissError pins what a GetChunk miss looks like on every
// engine: it matches ErrNotFound and prints "chunk <fp>: storage: not
// found", the text the eagerly formatted error had.
func TestChunkMissError(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			fp := fingerprint.Of([]byte("absent"))
			_, err := s.GetChunk(fp)
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("miss = %v, want ErrNotFound", err)
			}
			if want := fmt.Sprintf("chunk %s: %v", fp.Short(), ErrNotFound); err.Error() != want {
				t.Fatalf("miss prints %q, want %q", err, want)
			}
		})
	}
}

func TestRefcounting(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("shared")
			fp := fingerprint.Of(data)
			for i := 0; i < 3; i++ {
				if err := s.PutChunk(fp, data); err != nil {
					t.Fatal(err)
				}
			}
			b, n := s.Usage()
			if n != 1 || b != int64(len(data)) {
				t.Fatalf("usage after 3 puts = %d bytes / %d chunks, want %d / 1", b, n, len(data))
			}
			// Two releases keep it; the third removes it.
			for i := 0; i < 2; i++ {
				if err := s.ReleaseChunk(fp); err != nil {
					t.Fatal(err)
				}
				if ok, _ := s.HasChunk(fp); !ok {
					t.Fatalf("chunk dropped after %d releases", i+1)
				}
			}
			if err := s.ReleaseChunk(fp); err != nil {
				t.Fatal(err)
			}
			if ok, _ := s.HasChunk(fp); ok {
				t.Fatal("chunk survived final release")
			}
			if b, n := s.Usage(); b != 0 || n != 0 {
				t.Fatalf("usage after full release = %d/%d", b, n)
			}
			if err := s.ReleaseChunk(fp); !errors.Is(err, ErrNotFound) {
				t.Fatalf("releasing absent chunk = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestBlobs(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.PutBlob("ckpt-1/meta-rank000003", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			got, err := s.GetBlob("ckpt-1/meta-rank000003")
			if err != nil || string(got) != "payload" {
				t.Fatalf("got %q, %v", got, err)
			}
			if _, err := s.GetBlob("nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing blob error = %v, want ErrNotFound", err)
			}
			// Overwrite.
			if err := s.PutBlob("ckpt-1/meta-rank000003", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if got, _ := s.GetBlob("ckpt-1/meta-rank000003"); string(got) != "v2" {
				t.Fatalf("overwrite lost: %q", got)
			}
		})
	}
}

func TestFailSemantics(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("x")
			fp := fingerprint.Of(data)
			if err := s.PutChunk(fp, data); err != nil {
				t.Fatal(err)
			}
			s.Fail()
			if !s.Failed() {
				t.Fatal("Failed() false after Fail()")
			}
			if _, err := s.GetChunk(fp); !errors.Is(err, ErrFailed) {
				t.Fatalf("GetChunk on failed node = %v", err)
			}
			if err := s.PutChunk(fp, data); !errors.Is(err, ErrFailed) {
				t.Fatalf("PutChunk on failed node = %v", err)
			}
			if err := s.PutBlob("b", nil); !errors.Is(err, ErrFailed) {
				t.Fatalf("PutBlob on failed node = %v", err)
			}
			if b, n := s.Usage(); b != 0 || n != 0 {
				t.Fatalf("failed node reports usage %d/%d", b, n)
			}
		})
	}
}

func TestClusterAccounting(t *testing.T) {
	c := NewCluster(4)
	if c.Size() != 4 {
		t.Fatalf("Size = %d", c.Size())
	}
	for r := 0; r < 4; r++ {
		data := bytes.Repeat([]byte{byte(r)}, (r+1)*10)
		if err := c.Node(r).PutChunk(fingerprint.Of(data), data); err != nil {
			t.Fatal(err)
		}
	}
	total, chunks := c.TotalUsage()
	if total != 10+20+30+40 || chunks != 4 {
		t.Fatalf("TotalUsage = %d/%d", total, chunks)
	}
	if got := c.MaxUsage(); got != 40 {
		t.Fatalf("MaxUsage = %d", got)
	}
	usage := c.UsageByNode()
	if usage[2] != 30 {
		t.Fatalf("UsageByNode[2] = %d", usage[2])
	}
	c.FailNodes(3)
	total, chunks = c.TotalUsage()
	if total != 60 || chunks != 3 {
		t.Fatalf("TotalUsage after failure = %d/%d", total, chunks)
	}
	c.Replace(3)
	if c.Node(3).Failed() {
		t.Fatal("replaced node still failed")
	}
}
