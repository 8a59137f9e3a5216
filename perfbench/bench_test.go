package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fastlsa"
)

func TestPoolIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := makePool(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makePool(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(poolBytes(a), poolBytes(b)) {
			t.Errorf("%s: seed 7 gave two different pools", w.name)
		}
		c, err := makePool(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(poolBytes(a), poolBytes(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same pool", w.name)
		}
	}
}

func TestGateRejectsTamperedReplies(t *testing.T) {
	for _, w := range workloads {
		pool, err := makePool(tiny(w), 3)
		if err != nil {
			t.Fatal(err)
		}
		p := pool[0]
		if err := computeOracles(pool[:1]); err != nil {
			t.Fatal(err)
		}
		al, err := fastlsa.Align(p.a, p.b, fastlsa.Options{Matrix: p.scheme.matrix, Gap: p.scheme.gap})
		if err != nil {
			t.Fatal(err)
		}
		cigar := al.Path.CIGAR()
		if err := checkReply(p, al.Score, cigar); err != nil {
			t.Fatalf("%s: gate rejects a correct reply: %v", w.name, err)
		}
		bad := []struct {
			what  string
			score int64
			cigar string
		}{
			{"score off by one", al.Score + 1, cigar},
			{"cigar one column too long", al.Score, "1M" + cigar},
			{"cigar of the all-gap path", al.Score, fmt.Sprintf("%dD%dI", p.a.Len(), p.b.Len())},
			{"unparsable cigar", al.Score, "12Q"},
		}
		for _, b := range bad {
			if err := checkReply(p, b.score, b.cigar); err == nil {
				t.Errorf("%s: gate accepts a reply with %s", w.name, b.what)
			}
		}
	}
}

// tiny shrinks a workload to a smoke-test size, keeping its families,
// scoring and client count.
func tiny(w workload) workload {
	w.families = append([]family(nil), w.families...)
	for i := range w.families {
		w.families[i].n = 120
	}
	w.pool, w.tracePairs = 4, 2
	return w
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the server")
	}
	spec := readSpec(t)
	dir := t.TempDir()
	bin, err := buildServer("..", dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := tiny(w)
			pool, err := makePool(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := computeOracles(pool); err != nil {
				t.Fatal(err)
			}
			e2e, err := runE2E(ctx, w, pool, bin, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			layers, err := runLayers(ctx, w, pool, bin, time.Second, filepath.Join(dir, w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []runResult{e2e, layers} {
				if res.attempted == 0 || res.failed != 0 {
					t.Errorf("attempted %d, failed %d, first failure %v", res.attempted, res.failed, res.firstErr)
				}
			}
			checkNames(t, "end_to_end", e2e.metrics, spec.EndToEnd)
			checkNames(t, "per_layer", layers.metrics, spec.PerLayer)
		})
	}
}

// benchSpec is the part of the repository's BENCHMARK.json the program must
// agree with.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkNames asserts a run reports exactly the metrics the spec lists, in
// its units.
func checkNames(t *testing.T, list string, got []metric, want []specMetric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range got {
		units[m.name] = m.unit
	}
	if len(units) != len(got) || len(got) != len(want) {
		t.Errorf("%s: run reports %d metrics (%d distinct), spec lists %d", list, len(got), len(units), len(want))
	}
	for _, w := range want {
		if u, ok := units[w.Name]; !ok || u != w.Unit {
			t.Errorf("%s: metric %s reported with unit %q, spec says %q", list, w.Name, u, w.Unit)
		}
	}
}

func TestSpecWorkloadsExist(t *testing.T) {
	for _, w := range readSpec(t).Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// poolBytes concatenates the request bodies: the pool's identity.
func poolBytes(pool []*pair) []byte {
	var buf bytes.Buffer
	for _, p := range pool {
		buf.Write(p.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
