package gear

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
)

// update regenerates the golden cut-point vectors:
//
//	go test ./internal/chunk/gear -run TestGoldenCuts -update
var update = flag.Bool("update", false, "rewrite the golden cut-point vectors")

const goldenPath = "../testdata/gear_golden.json"

// testBuf builds a deterministic pseudo-random buffer from its own
// xorshift64* stream — not math/rand, so the golden vectors cannot move
// with a Go release.
func testBuf(seed uint64, n int) []byte {
	buf := make([]byte, n)
	x := seed
	for i := range buf {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		buf[i] = byte((x * 0x2545F4914F6CDD1D) >> 56)
	}
	return buf
}

// cutGeneric is the reference boundary scan: the simplest loop that is
// obviously correct. The production scan (cutUnrolled) must match it cut
// for cut — see the differential fuzzer and the golden vectors. Same
// preconditions as cutUnrolled.
func cutGeneric(buf []byte, minSize int, mask uint64) int {
	var h uint64
	for i := minSize - Window; i < minSize; i++ {
		h = h<<1 + table[buf[i]]
	}
	for i := minSize; i < len(buf); i++ {
		h = h<<1 + table[buf[i]]
		if h&mask == 0 {
			return i + 1
		}
	}
	return len(buf)
}

// cutsWith replicates Chunker.Cuts with an explicit scan function, so
// both implementations can be driven through the full chunking loop.
func cutsWith(fn func([]byte, int, uint64) int, c *Chunker, buf []byte) []int {
	if len(buf) == 0 {
		return nil
	}
	var out []int
	off := 0
	for off < len(buf) {
		rest := buf[off:]
		n := len(rest)
		if n > c.Min {
			limit := n
			if limit > c.Max {
				limit = c.Max
			}
			n = fn(rest[:limit], c.Min, c.mask)
		}
		off += n
		out = append(out, off)
	}
	return out
}

func TestNewBounds(t *testing.T) {
	cases := []struct {
		avg, wantMin, wantAvg, wantMax int
	}{
		{4096, 1024, 4096, 16384},
		{4000, 1024, 4096, 16384}, // rounds up, bounds derive from rounded
		{256, 64, 256, 1024},
		{100, 64, 128, 512}, // Min clamped to the 64-byte window
		{0, 1024, 4096, 16384},
	}
	for _, tc := range cases {
		c := New(tc.avg)
		if c.Min != tc.wantMin || c.Avg != tc.wantAvg || c.Max != tc.wantMax {
			t.Errorf("New(%d) = min/avg/max %d/%d/%d, want %d/%d/%d",
				tc.avg, c.Min, c.Avg, c.Max, tc.wantMin, tc.wantAvg, tc.wantMax)
		}
	}
}

func TestCutsInvariants(t *testing.T) {
	c := New(256)
	buf := testBuf(1, 64*1024+37)
	cuts := c.Cuts(buf)
	if len(cuts) == 0 || cuts[len(cuts)-1] != len(buf) {
		t.Fatalf("cuts do not tile the buffer: %v", cuts)
	}
	prev := 0
	for i, end := range cuts {
		size := end - prev
		if end <= prev {
			t.Fatalf("cut %d not ascending: %d after %d", i, end, prev)
		}
		if size > c.Max {
			t.Fatalf("chunk %d of %d bytes exceeds Max %d", i, size, c.Max)
		}
		if i < len(cuts)-1 && size <= c.Min {
			t.Fatalf("non-final chunk %d of %d bytes not above Min %d", i, size, c.Min)
		}
		prev = end
	}
	if got := c.Cuts(nil); got != nil {
		t.Fatalf("empty buffer produced cuts %v", got)
	}
	if got := c.Cuts(buf[:c.Min]); len(got) != 1 || got[0] != c.Min {
		t.Fatalf("sub-Min buffer cuts = %v, want [%d]", got, c.Min)
	}
}

// TestUnrolledMatchesGeneric pins the scan's core contract: the 8-way
// unrolled scan and the reference loop return identical cut points
// on identical input, across sizes that exercise the prime loop, the
// unrolled body and the tail.
func TestUnrolledMatchesGeneric(t *testing.T) {
	for _, avg := range []int{256, 1024, 4096} {
		c := New(avg)
		for seed := uint64(1); seed <= 20; seed++ {
			n := int(seed)*977 + c.Min - 3 // straddles Min, odd tails
			buf := testBuf(seed, n)
			g := cutsWith(cutGeneric, c, buf)
			u := cutsWith(cutUnrolled, c, buf)
			if len(g) != len(u) {
				t.Fatalf("avg=%d seed=%d: %d generic cuts vs %d unrolled", avg, seed, len(g), len(u))
			}
			for i := range g {
				if g[i] != u[i] {
					t.Fatalf("avg=%d seed=%d: cut %d differs: generic %d, unrolled %d", avg, seed, i, g[i], u[i])
				}
			}
		}
	}
}

// TestDeterminism re-runs the boundary scan 100 times: boundaries are
// collective decision state and must be bit-identical on every run.
func TestDeterminism(t *testing.T) {
	buf := testBuf(42, 48*1024)
	ref := New(512).Cuts(buf)
	for run := 0; run < 100; run++ {
		got := New(512).Cuts(buf)
		if len(got) != len(ref) {
			t.Fatalf("run %d: %d cuts, want %d", run, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("run %d: cut %d differs", run, i)
			}
		}
	}
}

// chunkSet returns the contents of the chunks the cuts delimit.
func chunkSet(buf []byte, cuts []int) map[string]bool {
	set := make(map[string]bool, len(cuts))
	prev := 0
	for _, end := range cuts {
		set[string(buf[prev:end])] = true
		prev = end
	}
	return set
}

func TestShiftResistance(t *testing.T) {
	base := testBuf(99, 64*1024)
	shifted := append([]byte("INSERTED PREFIX!"), base...)
	c := New(1024)
	before := chunkSet(base, c.Cuts(base))
	cuts := c.Cuts(shifted)
	var common int
	prev := 0
	for _, end := range cuts {
		if before[string(shifted[prev:end])] {
			common++
		}
		prev = end
	}
	if common*2 < len(cuts) {
		t.Fatalf("only %d/%d chunks survived a prefix shift; gear CDC is not shift resistant", common, len(cuts))
	}
}

// goldenCase is one golden cut-point vector: a deterministic buffer
// (regenerable from Seed/Len) and the boundaries the reference
// implementation produced when the vector was recorded. Any drift — a
// table change, a mask change, a scan bug on one architecture — breaks
// cross-version restores, so the vectors are committed and checked
// against both the production scan and the reference.
type goldenCase struct {
	Name string `json:"name"`
	Avg  int    `json:"avg"`
	Seed uint64 `json:"seed"`
	Len  int    `json:"len"`
	Cuts []int  `json:"cuts"`
}

func goldenInputs() []goldenCase {
	return []goldenCase{
		{Name: "small-256", Avg: 256, Seed: 11, Len: 8 * 1024},
		{Name: "medium-1k", Avg: 1024, Seed: 12, Len: 64 * 1024},
		{Name: "large-4k", Avg: 4096, Seed: 13, Len: 256 * 1024},
		{Name: "sub-min", Avg: 4096, Seed: 14, Len: 700},
		{Name: "zeros", Avg: 256, Seed: 0, Len: 16 * 1024}, // seed 0 xorshift degenerates to all-zero bytes
	}
}

func TestGoldenCuts(t *testing.T) {
	if *update {
		cases := goldenInputs()
		for i := range cases {
			buf := testBuf(cases[i].Seed, cases[i].Len)
			cases[i].Cuts = cutsWith(cutGeneric, New(cases[i].Avg), buf)
		}
		data, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden vectors (regenerate with -update): %v", err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("golden file holds no cases")
	}
	for _, tc := range cases {
		buf := testBuf(tc.Seed, tc.Len)
		for _, impl := range []struct {
			name string
			fn   func([]byte, int, uint64) int
		}{{"generic", cutGeneric}, {"unrolled", cutUnrolled}} {
			got := cutsWith(impl.fn, New(tc.Avg), buf)
			if len(got) != len(tc.Cuts) {
				t.Fatalf("%s/%s: %d cuts, want %d", tc.Name, impl.name, len(got), len(tc.Cuts))
			}
			for i := range got {
				if got[i] != tc.Cuts[i] {
					t.Fatalf("%s/%s: cut %d = %d, want %d", tc.Name, impl.name, i, got[i], tc.Cuts[i])
				}
			}
		}
	}
}
