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
	if o.Chunker.Size != chunk.DefaultSize {
		t.Errorf("chunk size default = %d", o.Chunker.Size)
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

// TestOptionsChunkerNormalization pins the chunker-spec rules: the zero
// value keeps fixed/4KiB, and invalid specs fail loudly.
func TestOptionsChunkerNormalization(t *testing.T) {
	o, err := Options{K: 1}.normalized(4)
	if err != nil {
		t.Fatal(err)
	}
	if o.Chunker.Algo != chunk.AlgoFixed || o.Chunker.Size != chunk.DefaultSize {
		t.Errorf("zero-value chunker = %+v", o.Chunker)
	}
	// Spec validation surfaces: gear rejects sub-window sizes.
	if _, err := (Options{K: 1, Chunker: chunk.Spec{Algo: chunk.AlgoGear, Size: 16}}).normalized(4); err == nil {
		t.Error("gear with 16-byte chunks accepted")
	}
	// Unknown algos fail, including Algo(1), the deleted Rabin chunker's
	// value: it must not silently mean another algorithm.
	for _, a := range []chunk.Algo{1, 9} {
		if _, err := (Options{K: 1, Chunker: chunk.Spec{Algo: a}}).normalized(4); err == nil {
			t.Errorf("unknown chunker algo %d accepted", a)
		}
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
