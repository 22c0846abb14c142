// Command dedupstat analyzes the chunk-level redundancy of arbitrary
// files — the measurement underlying the paper's premise that HPC
// datasets carry substantial natural duplication.
//
// Usage:
//
//	dedupstat [-chunk 4096] [-chunker fixed|gear] file...
//	dedupstat -cluster cluster.json
//	dedupstat -bundle DIR
//
// It reports, per file and across all files, the total size, the locally
// unique size (per-file dedup, the paper's local-dedup potential) and the
// globally unique size (cross-file dedup, the coll-dedup potential), plus
// a frequency histogram of duplicate chunks.
//
// With -cluster it instead renders a cluster telemetry JSON file
// (written by `dumpbench -cluster` or `replicad -cluster`) as tables:
// dump reports show per-phase min/median/p95/max across ranks, traffic
// totals, load-imbalance coefficients, clock spread and flagged
// stragglers; restore reports (Kind "restore") add read amplification,
// fetch imbalance and sequential-run locality.
//
// With -bundle it renders a post-mortem failure bundle (written by the
// flight recorder on collective failure, rollback, kill or crash
// recovery; see internal/obs): the failure header, the event timeline
// and the attached snapshot files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
	"dedupcr/internal/telemetry"
)

func main() {
	chunkSize := flag.Int("chunk", chunk.DefaultSize, "chunk size in bytes (target average for gear)")
	chunkerName := flag.String("chunker", "", "chunking algorithm: fixed or gear (default fixed)")
	clusterIn := flag.String("cluster", "", "render this cluster telemetry JSON file (dump and/or restore reports) as tables and exit")
	bundleIn := flag.String("bundle", "", "render this post-mortem failure bundle directory (or every bundle-* under it) as a timeline and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dedupstat [-chunk N] [-chunker fixed|gear] file...\n")
		fmt.Fprintf(os.Stderr, "       dedupstat -cluster cluster.json\n")
		fmt.Fprintf(os.Stderr, "       dedupstat -bundle DIR\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *clusterIn != "" {
		if err := renderCluster(*clusterIn); err != nil {
			fmt.Fprintf(os.Stderr, "dedupstat: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *bundleIn != "" {
		if err := renderBundle(*bundleIn); err != nil {
			fmt.Fprintf(os.Stderr, "dedupstat: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	algo, err := chunk.ParseAlgo(*chunkerName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dedupstat: %v\n", err)
		os.Exit(2)
	}
	chunker, err := chunk.New(chunk.Spec{Algo: algo, Size: *chunkSize})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dedupstat: %v\n", err)
		os.Exit(2)
	}

	globalSize := make(map[fingerprint.FP]int64)
	globalFreq := make(map[fingerprint.FP]int)
	var total, localUnique int64
	// The same phase decomposition the dump pipeline reports: read,
	// boundary scan, hashing, dedup lookup.
	var tRead, tChunk, tHash, tDedup time.Duration

	fmt.Printf("%-40s %12s %12s %8s\n", "file", "size", "unique", "ratio")
	for _, path := range flag.Args() {
		start := time.Now()
		data, err := os.ReadFile(path)
		tRead += time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dedupstat: %v\n", err)
			os.Exit(1)
		}
		start = time.Now()
		cuts := chunker.Cuts(data)
		tChunk += time.Since(start)
		start = time.Now()
		chunks := chunk.FromCuts(data, cuts)
		tHash += time.Since(start)
		seen := make(map[fingerprint.FP]bool)
		var fileUnique int64
		start = time.Now()
		for _, ch := range chunks {
			sz := int64(len(ch.Data))
			total += sz
			if !seen[ch.FP] {
				seen[ch.FP] = true
				fileUnique += sz
			}
			globalFreq[ch.FP]++
			globalSize[ch.FP] = sz
		}
		tDedup += time.Since(start)
		localUnique += fileUnique
		fmt.Printf("%-40s %12s %12s %8s\n", trunc(path, 40),
			metrics.Bytes(int64(len(data))), metrics.Bytes(fileUnique),
			metrics.Pct(fileUnique, int64(len(data))))
	}

	var globalUnique int64
	for fp := range globalFreq {
		globalUnique += globalSize[fp]
	}
	fmt.Printf("\ntotal          %12s\n", metrics.Bytes(total))
	fmt.Printf("local-unique   %12s (%s of total)  — local-dedup potential\n",
		metrics.Bytes(localUnique), metrics.Pct(localUnique, total))
	fmt.Printf("global-unique  %12s (%s of total)  — coll-dedup potential\n",
		metrics.Bytes(globalUnique), metrics.Pct(globalUnique, total))

	// Frequency histogram: how many distinct chunks occur f times.
	hist := make(map[int]int)
	for _, f := range globalFreq {
		hist[f]++
	}
	freqs := make([]int, 0, len(hist))
	for f := range hist {
		freqs = append(freqs, f)
	}
	sort.Ints(freqs)
	fmt.Println("\nduplicate frequency histogram (occurrences -> distinct chunks):")
	for _, f := range freqs {
		fmt.Printf("%8d -> %d\n", f, hist[f])
	}

	// Per-phase timing: where the analysis spent its time, with the same
	// labels the dump pipeline uses.
	tTotal := tRead + tChunk + tHash + tDedup
	fmt.Println("\nphase timing:")
	for _, p := range []struct {
		name string
		d    time.Duration
	}{
		{"read", tRead}, {"chunking", tChunk}, {"fingerprint", tHash},
		{"local-dedup", tDedup}, {"total", tTotal},
	} {
		fmt.Printf("%-12s %10s  %s\n", p.name, metrics.Duration(p.d),
			metrics.Pct(int64(p.d), int64(tTotal)))
	}
}

// renderCluster prints the cluster telemetry table(s) of a cluster JSON
// file: either one report (replicad -cluster) or a map of labelled
// reports (dumpbench -cluster). Map entries may mix dump and restore
// telemetry; the Kind discriminator tells them apart (ClusterDump and
// ClusterRestore share too many field names for blind decoding).
func renderCluster(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if ok, err := renderClusterReport(data); ok || err != nil {
		return err
	}
	var many map[string]json.RawMessage
	if err := json.Unmarshal(data, &many); err != nil || len(many) == 0 {
		return fmt.Errorf("%s holds neither a cluster report nor a label map", path)
	}
	labels := make([]string, 0, len(many))
	for l := range many {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for i, l := range labels {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s ==\n", l)
		ok, err := renderClusterReport(many[l])
		if err != nil {
			return fmt.Errorf("%s: %w", l, err)
		}
		if !ok {
			return fmt.Errorf("%s: not a cluster report", l)
		}
	}
	return nil
}

// renderClusterReport decodes one JSON cluster report — a ClusterRestore
// when Kind is "restore", a ClusterDump otherwise — and prints its
// table. Returns false when the bytes hold neither.
func renderClusterReport(data []byte) (bool, error) {
	var probe struct {
		Kind  string
		Ranks int
	}
	if err := json.Unmarshal(data, &probe); err != nil || probe.Ranks <= 0 {
		return false, nil
	}
	if probe.Kind == "restore" {
		var cr telemetry.ClusterRestore
		if err := json.Unmarshal(data, &cr); err != nil {
			return false, err
		}
		cr.WriteText(os.Stdout)
		return true, nil
	}
	var cd telemetry.ClusterDump
	if err := json.Unmarshal(data, &cd); err != nil {
		return false, err
	}
	cd.WriteText(os.Stdout)
	return true, nil
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "..." + s[len(s)-n+3:]
}

// renderBundle renders a post-mortem failure bundle: path may name one
// bundle directory (it holds events.jsonl) or a parent directory, in
// which case every bundle-* underneath is rendered, oldest first.
func renderBundle(path string) error {
	if _, err := os.Stat(filepath.Join(path, "events.jsonl")); err == nil {
		return obs.RenderBundle(os.Stdout, path)
	}
	dirs, err := obs.FindBundles(path)
	if err != nil {
		return err
	}
	if len(dirs) == 0 {
		return fmt.Errorf("%s: not a bundle (no events.jsonl) and no bundle-* directories underneath", path)
	}
	for i, dir := range dirs {
		if i > 0 {
			fmt.Println()
		}
		if err := obs.RenderBundle(os.Stdout, dir); err != nil {
			return fmt.Errorf("%s: %w", dir, err)
		}
	}
	return nil
}
