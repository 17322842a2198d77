// Command perfbench is the repository's end-to-end benchmark. It solves one
// workload with Seq-BDC, the paper's proposed method, in a closed loop (one
// client, each solve starting after the previous one ends), checks every
// solution, and prints each metric by name and unit. The last line of its
// output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"solve_s": {"value": 0.41, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 the same untraced loop runs first, then one traced solve
// replays the pipeline through each layer's public entry point under
// benchmark-side spans and a CPU profile, and the metrics are the per-layer
// ones. Any failed correctness check makes the exit code 1.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload road-warm-20k --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: road-cold-10k or road-warm-20k")
	seed := flag.Int64("seed", 1, "seed the workload's input is generated from")
	seconds := flag.Int("seconds", 10, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "1 adds the traced solve and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory the traced run writes spans and its CPU profile to")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := execute(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and reports its metrics; failed checks are
// counted in the result, and an error means the run could not complete.
func execute(name string, seed int64, budget time.Duration, trace bool, outDir string) (*result, error) {
	s, err := findSpec(name)
	if err != nil {
		return nil, err
	}
	r, err := newRun(s, seed, budget)
	if err != nil {
		return nil, err
	}
	if err := r.setUp(); err != nil {
		return nil, err
	}
	t, err := r.measure()
	if err != nil {
		return nil, err
	}

	var values map[string]float64
	want := endToEnd
	if trace {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if values, err = r.traced(t, outDir); err != nil {
			return nil, err
		}
		want = perLayer
	} else {
		var assigned int
		var unfairness float64
		for _, rep := range t.reports {
			assigned += rep.Assigned
			unfairness += rep.Unfairness
		}
		values = map[string]float64{
			"solve_s":      median(t.solveS),
			"setup_s":      median(r.setupS),
			"assigned":     float64(assigned),
			"unfairness":   unfairness / float64(len(t.reports)),
			"alloc_mb":     median(t.allocMB),
			"live_heap_mb": t.liveHeapMB,
		}
	}

	fmt.Printf("workload %s, seed %d: %d solves, %d failed\n", s.name, seed, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Println("  FAILED", f)
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]value{}}
	for _, m := range want {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Printf("  %-32s %14.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	return res, nil
}
