package gear_test

import (
	"bytes"
	"math/rand"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/chunk/gear"
	"dedupcr/internal/fingerprint"
)

// TestSplitMatchesCutsPlusFromCuts checks that splitting through the
// chunk registry — Cuts of the registered gear chunker followed by
// chunk.FromCuts — yields exactly the chunks a direct slice of the
// buffer at gear's own cut points would: same boundaries, same
// fingerprints, reassembling the buffer. It lives in the external test
// package because package chunk imports gear.
func TestSplitMatchesCutsPlusFromCuts(t *testing.T) {
	buf := make([]byte, 20*1024)
	rand.New(rand.NewSource(7)).Read(buf)
	cc, err := chunk.New(chunk.Spec{Algo: chunk.AlgoGear, Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	got := chunk.FromCuts(buf, cc.Cuts(buf))
	cuts := gear.New(256).Cuts(buf)
	if len(got) != len(cuts) {
		t.Fatalf("%d chunks via Cuts+FromCuts, %d cut points from gear", len(got), len(cuts))
	}
	var joined []byte
	prev := 0
	for i, end := range cuts {
		data := buf[prev:end]
		if !bytes.Equal(got[i].Data, data) {
			t.Fatalf("chunk %d covers %d bytes, want buf[%d:%d]", i, len(got[i].Data), prev, end)
		}
		if got[i].FP != fingerprint.Of(data) {
			t.Fatalf("chunk %d fingerprint does not match its data", i)
		}
		joined = append(joined, got[i].Data...)
		prev = end
	}
	if !bytes.Equal(joined, buf) {
		t.Fatal("chunks do not reassemble buf")
	}
}
