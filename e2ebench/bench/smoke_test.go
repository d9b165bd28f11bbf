package bench

import (
	"os"
	"strings"
	"testing"
)

// smoke returns a tiny run of a workload with every correctness check
// on: a tenth of the catch-up, one second of paced epochs and queries,
// one set-up, one catch-up after the paced phase, no percentile floors.
func smoke(t *testing.T, wl string) Config {
	return Config{Workload: wl, Seed: 7, Seconds: 1, WorkDir: t.TempDir(), SetupReps: 1, CatchupAfter: 1, Scale: 0.1}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range Workloads() {
		t.Run(wl, func(t *testing.T) {
			res, err := Run(smoke(t, wl))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct %v, failed %d of %d: %v", res.Correct, res.Failed, res.Attempted, res.Mismatches)
			}
			if len(res.EndToEnd) != 3 {
				t.Fatalf("%d end-to-end metrics, want 3", len(res.EndToEnd))
			}
			for _, m := range append(res.EndToEnd, res.PerLayer[:9]...) {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, m.Value)
				}
			}
		})
	}
}

// TestOneWrongAnswerFailsTheRun is the mutation test: a single corrupted
// replica answer must make the run incorrect and be named.
func TestOneWrongAnswerFailsTheRun(t *testing.T) {
	cfg := smoke(t, "tpcc-row")
	cfg.corrupt = func(q int, d uint64) uint64 {
		if q == 3 {
			return d ^ 1
		}
		return d
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("a wrong answer left the run correct")
	}
	if len(res.Mismatches) != 1 || !strings.HasPrefix(res.Mismatches[0], "query 3 ") {
		t.Fatalf("mismatches %q, want exactly query 3", res.Mismatches)
	}
}

func TestTracedRunAccountsForFreshness(t *testing.T) {
	cfg := smoke(t, "bustracker-durable")
	cfg.Trace = true
	cfg.TraceOut = t.TempDir() + "/trace.jsonl"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res.Mismatches)
	}
	if len(res.PerLayer) == 0 {
		t.Fatal("no per-layer metrics")
	}
	f, err := os.Open(cfg.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	paths := BlockingPaths(spans)
	if len(paths) == 0 {
		t.Fatal("no paced epoch in the trace")
	}
	for _, p := range paths {
		if p.Fresh <= 0 || p.Uncovered < 0 || p.Uncovered > p.Fresh {
			t.Errorf("epoch %d: freshness %d ns, uncovered %d ns", p.Seq, p.Fresh, p.Uncovered)
		}
	}
	if self := SelfTimes(spans); self["primary"] <= 0 || self["query"] < 0 {
		t.Errorf("self times %v", self)
	}
}

func TestQuantileFloors(t *testing.T) {
	xs := make([]float64, 99)
	if _, err := pct(xs, 90, true); err == nil {
		t.Error("p90 over 99 samples passed its floor")
	}
	if _, err := pct(append(xs, 0), 90, true); err != nil {
		t.Error(err)
	}
	if minSamples(99) != 1000 || minSamples(50) != 1 {
		t.Errorf("floors p99 %d, p50 %d", minSamples(99), minSamples(50))
	}
}
