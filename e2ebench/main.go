// Command e2ebench runs one end-to-end replica benchmark run and prints
// its result as a JSON object on the last line of standard output.
//
//	go run . --workload tpcc-row --seed 1 --seconds 15 --trace 0
//
// Workloads are listed by -h. With --trace 0 the result carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics and
// the run writes its spans to -trace-out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"aets/e2ebench/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run() error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(bench.Workloads(), ", "))
	seed := fs.Int64("seed", 1, "primary stream seed")
	seconds := fs.Float64("seconds", 15, "paced phase length in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the durable replica's files and the trace")
	traceOut := fs.String("trace-out", "", "trace file (default <workdir>/trace-<workload>-<seed>.jsonl)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	cfg := bench.Config{
		Workload: *wl,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		WorkDir:  *workdir,
		Floors:   true,
		Log:      os.Stdout,
	}
	if cfg.Trace {
		cfg.TraceOut = *traceOut
		if cfg.TraceOut == "" {
			cfg.TraceOut = filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.jsonl", *wl, *seed))
		}
	}
	res, err := bench.Run(cfg)
	if err != nil {
		return err
	}
	for _, m := range res.EndToEnd {
		fmt.Printf("  %-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range res.PerLayer {
		fmt.Printf("  %-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, b := range res.Mismatches {
		fmt.Println("MISMATCH", b)
	}
	out := output{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	list := res.EndToEnd
	if cfg.Trace {
		list = res.PerLayer
	}
	for _, m := range list {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d answers disagree with the reference model", len(res.Mismatches))
	}
	return nil
}
