// Command dumpbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dumpbench -list
//	dumpbench [-quick] [-v] fig3a table1 ...
//	dumpbench [-quick] [-v] all
//
// Each experiment prints the same rows/series the paper reports; -quick
// shrinks process counts for a fast smoke run, the default uses the
// paper's scales (up to 408 ranks, simulated in process).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/experiments"
	"dedupcr/internal/obs"
	"dedupcr/internal/telemetry"
)

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	quick := flag.Bool("quick", false, "shrink process counts for a fast run")
	verbose := flag.Bool("v", false, "print scenario progress to stderr")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of every scenario to this file (open in Perfetto)")
	clusterOut := flag.String("cluster", "", "write the ClusterDump/ClusterRestore JSON of every telemetry-aggregating scenario to this file (keyed by scenario label)")
	clusterTrace := flag.String("cluster-trace", "", "write a merged cross-rank Chrome trace (one pid per rank) of the last telemetry-aggregating scenario to this file")
	restoreStats := flag.Bool("restore-stats", false, "print the cluster restore telemetry report of every restore-aggregating scenario (read amplification, locality, stragglers)")
	parallelism := flag.Int("parallelism", 0, "per-rank worker budget for the dump hot path (0 = GOMAXPROCS, 1 = serial reference)")
	chunker := flag.String("chunker", "fixed", "chunking algorithm for every dump: fixed or gear")
	timeout := flag.Duration("timeout", 0, "abort each collective scenario after this long (0 = no deadline)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dumpbench [-quick] [-v] [-parallelism n] [-chunker fixed|gear] [-trace out.json] [-cluster out.json] [-cluster-trace out.json] [-restore-stats] <experiment-id>... | all\n")
		fmt.Fprintf(os.Stderr, "       dumpbench -list\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var ids []string
	if len(args) == 1 && args[0] == "all" {
		for _, e := range experiments.Registry {
			ids = append(ids, e.ID)
		}
	} else {
		ids = args
	}

	algo, err := chunk.ParseAlgo(*chunker)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dumpbench: %v\n", err)
		os.Exit(2)
	}

	cfg := experiments.Config{Quick: *quick, Verbose: *verbose, Parallelism: *parallelism, Chunker: algo, Timeout: *timeout}
	if *traceOut != "" {
		// `all` records about 2.1M events (55k with -quick).
		cfg.Trace = obs.New(1 << 22)
	}
	// Collect every ClusterDump/ClusterRestore the experiments aggregate;
	// files are written once after all experiments ran. The JSON map mixes
	// both kinds — the Kind field disambiguates them for dedupstat.
	clusters := map[string]any{}
	var lastLabel string
	var lastRanks []telemetry.RankTrace
	var lastCluster *telemetry.ClusterDump
	if *clusterOut != "" || *clusterTrace != "" {
		cfg.OnCluster = func(label string, cd *telemetry.ClusterDump, ranks []telemetry.RankTrace) {
			clusters[label] = cd
			lastLabel, lastCluster, lastRanks = label, cd, ranks
		}
	}
	if *clusterOut != "" || *restoreStats {
		cfg.OnClusterRestore = func(label string, cr *telemetry.ClusterRestore, ranks []telemetry.RankTrace) {
			clusters[label] = cr
			if *restoreStats {
				fmt.Printf("== restore telemetry: %s ==\n", label)
				cr.WriteText(os.Stdout)
				fmt.Println()
			}
		}
	}
	for _, id := range ids {
		exp, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "dumpbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		tab, err := exp.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dumpbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(tab.Render())
		fmt.Printf("(%s finished in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	if cfg.Trace != nil {
		if err := cfg.Trace.WriteFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "dumpbench: write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d trace events to %s (coverage %.1f%% of traced wall time, %d dropped)\n",
			len(cfg.Trace.Events()), *traceOut, 100*cfg.Trace.Coverage(), cfg.Trace.Dropped())
	}
	if *clusterOut != "" {
		if len(clusters) == 0 {
			fmt.Fprintf(os.Stderr, "dumpbench: -cluster set but no experiment aggregated cluster telemetry (run imbalance or fragmentation)\n")
			os.Exit(1)
		}
		data, err := json.MarshalIndent(clusters, "", "  ")
		if err == nil {
			err = os.WriteFile(*clusterOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dumpbench: write cluster dump: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d cluster reports to %s\n", len(clusters), *clusterOut)
	}
	if *clusterTrace != "" {
		if lastRanks == nil {
			fmt.Fprintf(os.Stderr, "dumpbench: -cluster-trace set but no experiment aggregated cluster telemetry (run imbalance)\n")
			os.Exit(1)
		}
		f, err := os.Create(*clusterTrace)
		if err == nil {
			err = telemetry.MergeTraces(f, lastRanks, lastCluster)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dumpbench: write merged trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote merged cross-rank trace of %s to %s\n", lastLabel, *clusterTrace)
	}
}
