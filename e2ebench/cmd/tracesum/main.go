// Command tracesum reads a traced benchmark run's span file and prints
// each layer's self time and, for every paced epoch, its freshness minus
// the spans on its blocking path, flagging epochs whose uncovered
// remainder exceeds -flag of their freshness:
//
//	go run ./cmd/tracesum -flag 0.05 ../.bench_build/trace-tpcc-row-1.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"aets/e2ebench/bench"
)

func main() {
	share := flag.Float64("flag", 0.05, "flag epochs whose uncovered share of freshness exceeds this")
	epochs := flag.Bool("epochs", false, "print every paced epoch's freshness and remainder")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracesum [-flag share] [-epochs] <trace.jsonl>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracesum:", err)
		os.Exit(1)
	}
	spans, err := bench.ReadTrace(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracesum:", err)
		os.Exit(1)
	}
	if *epochs {
		for _, p := range bench.BlockingPaths(spans) {
			fmt.Printf("epoch %5d  freshness %9.3f ms  uncovered %8.3f ms\n",
				p.Seq, float64(p.Fresh)/1e6, float64(p.Uncovered)/1e6)
		}
	}
	if n := bench.Summarize(os.Stdout, spans, *share); n > 0 {
		os.Exit(3)
	}
}
