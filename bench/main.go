// Command bench is the repository's wall-clock benchmark: it drives the
// public facade (dedupcr.DumpOutput / dedupcr.Restore) over four named
// workloads, checks every restored byte, and prints every metric by name
// with unit, direction and regression bound. See README.md in this
// directory for the glossary and the layer -> metric -> workload map.
//
//	go run ./bench -out r.json            # all workloads, end-to-end + traced
//	go run ./bench -compare a.json b.json # apply directions and bounds
//	go run ./bench -smoke                 # seconds-sized pass over everything
//
// The BENCHMARK.json contract runs one workload and one kind of run per
// process and reads the last line of standard output:
//
//	go run ./bench --workload page-tcp-seg --seed 7 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

const (
	// timedIters is the least number of timed iterations: at 40, the p75
	// has ten samples beyond it. tracedIters is the traced run's count.
	timedIters  = 40
	tracedIters = 10

	defaultDir = ".bench_build/dedupcr-bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters, so the smoke
// test drives the very same code path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload (default: all four)")
		seed    = fs.Int64("seed", 1, "seed of the data generator; it feeds nothing else")
		seconds = fs.Float64("seconds", 0, "keep timing iterations for at least this long (the 40-iteration minimum always applies)")
		trace   = fs.Int("trace", -1, "0: end-to-end run only; 1: traced per-layer run only; -1: both")
		out     = fs.String("out", "", "write the result file here")
		dir     = fs.String("dir", defaultDir, "directory for segment stores (removed afterwards) and trace files")
		smoke   = fs.Bool("smoke", false, "1 MiB per rank, 1 iteration: checks the benchmark, measures nothing")
		compare = fs.Bool("compare", false, "compare two result files given as arguments: baseline candidate")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files: baseline candidate")
			return 2
		}
		a, err := readResultFile(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readResultFile(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		ok, err := compareFiles(stdout, a, b)
		if err != nil {
			return fail(fmt.Errorf("refusing to compare: %w", err))
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	selected := append([]workload(nil), workloads...)
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	b := budget{minIters: timedIters, seconds: *seconds}
	traced := tracedIters
	if *smoke {
		b, traced = budget{minIters: 1}, 1
		for i, w := range selected {
			selected[i] = smokeSized(w)
		}
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return fail(err)
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)

	rf := resultFile{Seed: *seed}
	status := 0
	for _, w := range selected {
		res := workloadResult{Workload: w}
		if *trace != 1 {
			var err error
			if res, err = runEndToEnd(w, *seed, scratch, b); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				status = 1
			}
		}
		if *trace != 0 && status == 0 {
			tres, tr, err := runTraced(w, *seed, scratch, traced)
			res.Attempted += tres.Attempted
			res.Failed += tres.Failed
			res.PerLayer = tres.PerLayer
			if *trace == 1 {
				res.Samples = tres.Samples
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				status = 1
			} else {
				res.TraceFile = filepath.Join(*dir, "trace-"+w.Name+".json")
				if err := tr.writeChrome(res.TraceFile, w.Name); err != nil {
					return fail(err)
				}
			}
		}
		printWorkload(stdout, res)
		rf.Workloads = append(rf.Workloads, res)
		if status != 0 {
			break
		}
	}
	if *out != "" {
		rf.Env = describeEnvironment(*dir)
		if err := writeResultFile(*out, rf); err != nil {
			return fail(err)
		}
	}
	// One workload and one kind of run: the BENCHMARK.json contract's
	// result object is the last line of standard output.
	if len(rf.Workloads) == 1 && *trace >= 0 && status == 0 {
		if err := printContractLine(stdout, rf.Workloads[0], *trace == 1); err != nil {
			return fail(err)
		}
	}
	return status
}

// printContractLine writes {"correct","attempted","failed","metrics"}
// with every end_to_end metric of BENCHMARK.json (trace 0) or every
// per_layer one (trace 1). failed_op_share is not among them: the
// contract carries it as failed/attempted.
func printContractLine(w io.Writer, res workloadResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	list := res.EndToEnd
	if traced {
		list = res.PerLayer
	}
	for _, m := range list {
		if m.Name != "failed_op_share" {
			metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
