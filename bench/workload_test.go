package main

import (
	"bytes"
	"testing"
)

func TestGenerateIsSeedDeterministic(t *testing.T) {
	w := smokeSized(workloads[0])
	a, err := generate(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(w, 7)
	other, _ := generate(w, 8)
	for r := range a {
		if !bytes.Equal(a[r], b[r]) {
			t.Errorf("rank %d: same seed gave different bytes", r)
		}
		if bytes.Equal(a[r], other[r]) {
			t.Errorf("rank %d: seeds 7 and 8 gave the same bytes", r)
		}
	}
}

// TestGenerateRegions checks every workload's buffers page by page: each
// region has its share of the pages, and a page's duplication degree (how
// many ranks hold it) is N in the all region, 2 in the pair region, 1 in
// the private region; the zero region is zero pages.
func TestGenerateRegions(t *testing.T) {
	for _, w := range workloads {
		w := smokeSized(w)
		t.Run(w.Name, func(t *testing.T) {
			bufs, err := generate(w, 3)
			if err != nil {
				t.Fatal(err)
			}
			all, pair, zero, private := w.regionPages()
			pages := w.PerRank / w.Chunk
			if all+pair+zero+private != pages {
				t.Fatalf("regions cover %d of %d pages", all+pair+zero+private, pages)
			}
			for i, pct := range w.Mix[:3] {
				got := []int{all, pair, zero}[i]
				if got != pages*pct/100 {
					t.Errorf("region %d: %d pages, want %d%% of %d", i, got, pct, pages)
				}
			}
			holders := make(map[string]map[int]bool) // page content -> ranks
			for r, buf := range bufs {
				if len(buf) != w.PerRank {
					t.Fatalf("rank %d: %d bytes, want %d", r, len(buf), w.PerRank)
				}
				for p := 0; p < pages; p++ {
					key := string(buf[p*w.Chunk : (p+1)*w.Chunk])
					if holders[key] == nil {
						holders[key] = make(map[int]bool)
					}
					holders[key][r] = true
				}
			}
			zeroPage := string(make([]byte, w.Chunk))
			for r, buf := range bufs {
				for p := 0; p < pages; p++ {
					key := string(buf[p*w.Chunk : (p+1)*w.Chunk])
					want, region := 1, "private"
					switch {
					case p < all:
						want, region = w.N, "all"
					case p < all+pair:
						want, region = 2, "pair"
					case p < all+pair+zero:
						want, region = w.N, "zero"
						if key != zeroPage {
							t.Fatalf("rank %d page %d: zero region holds data", r, p)
						}
					}
					if got := len(holders[key]); got != want {
						t.Fatalf("rank %d page %d (%s): on %d ranks, want %d", r, p, region, got, want)
					}
				}
			}
		})
	}
}

func TestGenerateRejectsUnalignedSize(t *testing.T) {
	w := workloads[0]
	w.PerRank = w.Chunk*3 + 1
	if _, err := generate(w, 1); err == nil {
		t.Error("a buffer that is not whole pages was accepted")
	}
}
