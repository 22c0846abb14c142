package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

func TestForgetReclaimsStorage(t *testing.T) {
	const n, k = 8, 3
	cluster := storage.NewCluster(n)
	buffers := make(map[string][][]byte)

	// Two checkpoints sharing their structural content (epoch-varying
	// private part), like consecutive real checkpoints.
	err := collectives.Run(n, func(c collectives.Comm) error {
		for epoch, name := range []string{"e0", "e1"} {
			// The +100*epoch offset changes the private pages between
			// epochs while the shared/structural pages stay identical —
			// the overlap profile of consecutive real checkpoints.
			buf := testBuffer(c.Rank()+100*epoch, 6, 4, 3, 2)
			o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: name}
			if _, err := DumpOutput(c, cluster.Node(c.Rank()), buf, o); err != nil {
				return err
			}
			if c.Rank() == 0 {
				buffers[name] = append(buffers[name], nil)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	afterBoth, _ := cluster.TotalUsage()

	// Forget the first checkpoint on every node.
	for r := 0; r < n; r++ {
		if err := Forget(cluster.Node(r), "e0", r); err != nil {
			t.Fatalf("node %d forget: %v", r, err)
		}
	}
	afterForget, _ := cluster.TotalUsage()
	if afterForget >= afterBoth {
		t.Fatalf("forget reclaimed nothing: %d -> %d bytes", afterBoth, afterForget)
	}

	// The second checkpoint must still restore byte-exactly.
	restored := make([][]byte, n)
	err = collectives.Run(n, func(c collectives.Comm) error {
		got, err := Restore(c, cluster.Node(c.Rank()), "e1")
		if err != nil {
			return err
		}
		restored[c.Rank()] = got
		want := testBuffer(c.Rank()+100, 6, 4, 3, 2)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d: e1 corrupted by forgetting e0", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Double forget fails cleanly.
	if err := Forget(cluster.Node(0), "e0", 0); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("second forget = %v, want ErrNotFound", err)
	}
	// Forgetting an unknown dataset fails cleanly.
	if err := Forget(cluster.Node(0), "never-dumped", 0); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("unknown forget = %v, want ErrNotFound", err)
	}
}

func TestForgetAllCheckpointsEmptiesStores(t *testing.T) {
	const n, k = 6, 2
	cluster := storage.NewCluster(n)
	err := collectives.Run(n, func(c collectives.Comm) error {
		buf := testBuffer(c.Rank(), 4, 2, 1, 1)
		o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "only"}
		_, err := DumpOutput(c, cluster.Node(c.Rank()), buf, o)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if err := Forget(cluster.Node(r), "only", r); err != nil {
			t.Fatal(err)
		}
	}
	if bytes, chunks := cluster.TotalUsage(); chunks != 0 || bytes != 0 {
		t.Fatalf("stores still hold %d bytes in %d chunks after forgetting everything", bytes, chunks)
	}
}

func TestGCListRoundTrip(t *testing.T) {
	got, err := unmarshalGC(gcList{}.marshal())
	if err != nil || len(got.refs) != 0 || len(got.held) != 0 {
		t.Fatalf("empty list round trip: %+v %v", got, err)
	}
	want := gcList{refs: []fingerprint.FP{fingerprint.Of([]byte("a")), fingerprint.Of(nil)}, held: []int{3, 0, 7}}
	if got, err = unmarshalGC(want.marshal()); err != nil || !slices.Equal(got.refs, want.refs) || !slices.Equal(got.held, want.held) {
		t.Fatalf("round trip: %+v %v, want %+v", got, err, want)
	}
	for _, bad := range [][]byte{{1, 2}, gcList{}.marshal()[:6], append(gcList{}.marshal(), 0xFF), want.marshal()[:50]} {
		if _, err := unmarshalGC(bad); err == nil {
			t.Fatalf("malformed list % x accepted", bad)
		}
	}
}
