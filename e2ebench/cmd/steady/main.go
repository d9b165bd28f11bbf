// Command steady runs one benchmark workload several times, each with
// another seed, and prints every metric's median and quartiles and
// whether the run-to-run spread fits the metric's bound in
// BENCHMARK.json. Run from the benchmark's directory, naming the
// repository root:
//
//	cd e2ebench && go run ./cmd/steady -root .. -workload tpcc-row -n 10 -seed 1
//
// The spread is
// (Q3-Q1)/median with the quartiles Python's statistics.quantiles(n=4)
// gives.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type benchFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		os.Exit(1)
	}
}

func run() error {
	root := flag.String("root", ".", "repository root (holds BENCHMARK.json)")
	wl := flag.String("workload", "", "workload to run")
	n := flag.Int("n", 10, "number of runs")
	seed := flag.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	trace := flag.Int("trace", 0, "passed to the benchmark as --trace")
	flag.Parse()
	raw, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []float64
	for i := 0; i < *n; i++ {
		s := *seed + int64(i)
		args := append(append([]string(nil), bf.Command[1:]...),
			"--workload", *wl, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", strconv.Itoa(*trace))
		cmd := exec.Command(bf.Command[0], args...)
		cmd.Dir = *root
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w\n%s", s, err, out)
		}
		res, err := lastJSON(out)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: run reports incorrect answers", s)
		}
		failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
		line := []string{fmt.Sprintf("seed %3d", s)}
		names := sortedKeys(res.Metrics)
		for _, name := range names {
			m := res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			line = append(line, fmt.Sprintf("%s=%.4g", name, m.Value))
		}
		fmt.Println(strings.Join(line, " "))
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	fmt.Printf("\n%s, %d runs, seeds %d..%d, failed share %v\n", *wl, *n, *seed, *seed+int64(*n)-1, distinct(failShares))
	fmt.Printf("| metric | unit | median | Q1 | Q3 | spread | bound | fits |\n|---|---|---|---|---|---|---|---|\n")
	for _, name := range sortedKeys(values) {
		xs := values[name]
		sort.Float64s(xs)
		q := quartiles(xs)
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fit := "-"
		if b, ok := bounds[name]; ok {
			switch {
			case name == "setup_s":
				fit = "n/a"
			case spread <= b/3:
				fit = "yes (< bound/3)"
			case spread <= b:
				fit = "yes"
			default:
				fit = "NO"
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.3f | %.2f | %s |\n", name, units[name], q[1], q[0], q[2], spread, b, fit)
		} else {
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.3f | - | - |\n", name, units[name], q[1], q[0], q[2], spread)
		}
	}
	return nil
}

// quartiles ports Python's statistics.quantiles(data, n=4) with its
// default exclusive method; xs must be sorted and hold at least 2 values.
func quartiles(xs []float64) [3]float64 {
	var out [3]float64
	ld := len(xs)
	if ld < 2 {
		for i := range out {
			out[i] = xs[0]
		}
		return out
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return out
}

func lastJSON(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func distinct(xs []float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
