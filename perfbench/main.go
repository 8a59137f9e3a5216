// Command perfbench is the repository's benchmark of POST /v1/align: an
// end-to-end run against the real server binary (--trace 0) and a traced
// run that times each layer's public function from outside (--trace 1).
//
//	bash perfbench/run.sh --workload dna-homolog --seed 1 --seconds 15 --trace 0
//
// It builds cmd/fastlsa-server from the checkout it runs in, generates every
// input from --seed, checks every alignment against an independent oracle,
// prints one line per metric, and ends with one JSON result line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A wrong or failed alignment makes the run exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer traced run")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	bin, err := buildServer(root, outDir)
	if err != nil {
		return err
	}
	pool, err := makePool(w, *seed)
	if err != nil {
		return err
	}
	if err := computeOracles(pool); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("workload %s seed %d seconds %d trace %d: %s, GOMAXPROCS %d, nproc %d\n  %s\n",
		w.name, *seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), w.why)
	d := time.Duration(*seconds) * time.Second
	var res runResult
	if *trace == 0 {
		res, err = runE2E(ctx, w, pool, bin, d)
	} else {
		res, err = runLayers(ctx, w, pool, bin, d, filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", w.name, *seed)))
	}
	if err != nil {
		return err
	}
	return report(res)
}

// report prints one line per metric and then the JSON result line; a failed
// or wrong operation is an error after the result is printed.
func report(res runResult) error {
	out := resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricJSON, len(res.metrics)),
	}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v (first failure: %v)", m.name, m.value, res.firstErr)
		}
		fmt.Printf("  %-44s %14.6g %-6s (n=%d)\n", m.name, m.value, m.unit, m.n)
		out.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		return fmt.Errorf("%d of %d operations failed; first: %v", res.failed, res.attempted, res.firstErr)
	}
	return nil
}
