package core

import (
	"strings"
	"testing"

	"dedupcr/internal/chunk"
)

func TestApproachString(t *testing.T) {
	cases := map[Approach]string{
		NoDedup:      "no-dedup",
		LocalDedup:   "local-dedup",
		CollDedup:    "coll-dedup",
		Approach(42): "Approach(42)",
	}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(a), got, want)
		}
	}
}

func TestOptionsNormalization(t *testing.T) {
	o, err := Options{K: 3, Approach: CollDedup}.normalized(8)
	if err != nil {
		t.Fatal(err)
	}
	if o.F != DefaultF {
		t.Errorf("F default = %d, want %d", o.F, DefaultF)
	}
	if o.ChunkSize != chunk.DefaultSize {
		t.Errorf("ChunkSize default = %d", o.ChunkSize)
	}
	if o.Shuffle == nil || !*o.Shuffle {
		t.Error("coll-dedup must default to shuffling on")
	}
	if o.Name != "dataset" {
		t.Errorf("Name default = %q", o.Name)
	}

	o, err = Options{K: 2, Approach: LocalDedup}.normalized(4)
	if err != nil {
		t.Fatal(err)
	}
	if *o.Shuffle {
		t.Error("baselines must default to shuffling off")
	}

	// Unbounded F.
	o, err = Options{K: 1, F: -1}.normalized(4)
	if err != nil || o.F != 0 {
		t.Errorf("negative F should map to unbounded (0), got %d (%v)", o.F, err)
	}

	for _, bad := range []Options{{K: 0}, {K: -3}, {K: 9}} {
		if _, err := bad.normalized(8); err == nil {
			t.Errorf("Options %+v accepted", bad)
		} else if !strings.Contains(err.Error(), "replication factor") {
			t.Errorf("unexpected error text: %v", err)
		}
	}
}

// TestOptionsChunkerNormalization pins the chunker-spec rules: zero
// values keep fixed/4KiB, the spec and ChunkSize agree or error, and
// contradictory combinations fail loudly.
func TestOptionsChunkerNormalization(t *testing.T) {
	// Zero value: fixed at DefaultSize, mirrored both ways.
	o, err := Options{K: 1}.normalized(4)
	if err != nil {
		t.Fatal(err)
	}
	if o.Chunker.Algo != chunk.AlgoFixed || o.Chunker.Size != chunk.DefaultSize || o.ChunkSize != chunk.DefaultSize {
		t.Errorf("zero-value chunker = %+v ChunkSize=%d", o.Chunker, o.ChunkSize)
	}

	// ChunkSize fills the spec size.
	o, err = Options{K: 1, ChunkSize: 256, Chunker: chunk.Spec{Algo: chunk.AlgoGear}}.normalized(4)
	if err != nil {
		t.Fatal(err)
	}
	if o.Chunker.Size != 256 || o.ChunkSize != 256 {
		t.Errorf("ChunkSize not threaded into the spec: %+v", o.Chunker)
	}

	// Disagreeing sizes conflict.
	if _, err := (Options{K: 1, ChunkSize: 512, Chunker: chunk.Spec{Algo: chunk.AlgoGear, Size: 256}}).normalized(4); err == nil {
		t.Error("disagreeing ChunkSize and Chunker.Size accepted")
	}
	// Matching sizes are fine.
	if _, err := (Options{K: 1, ChunkSize: 256, Chunker: chunk.Spec{Algo: chunk.AlgoGear, Size: 256}}).normalized(4); err != nil {
		t.Errorf("matching ChunkSize and Chunker.Size rejected: %v", err)
	}
	// Spec validation surfaces: CDC algos reject sub-window sizes.
	if _, err := (Options{K: 1, Chunker: chunk.Spec{Algo: chunk.AlgoGear, Size: 16}}).normalized(4); err == nil {
		t.Error("gear with 16-byte chunks accepted")
	}
	// Unknown algo fails.
	if _, err := (Options{K: 1, Chunker: chunk.Spec{Algo: chunk.Algo(9)}}).normalized(4); err == nil {
		t.Error("unknown chunker algo accepted")
	}
}

func TestBoolHelper(t *testing.T) {
	if v := Bool(true); v == nil || !*v {
		t.Error("Bool(true) broken")
	}
	if v := Bool(false); v == nil || *v {
		t.Error("Bool(false) broken")
	}
}
