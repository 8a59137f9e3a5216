package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// setupStarts is how many times the end-to-end run starts the server; the
// median start-up time is setup_s.
const setupStarts = 9

// sample is one closed-loop request: its pair, latency and reply.
type sample struct {
	pair    int
	latency time.Duration
	body    []byte
	err     error
}

// closedLoop runs clients goroutines, each sending its next request only
// after the previous reply, until the deadline (each client sends at least
// once). Client c walks the pool sequentially from offset c*len/clients, so
// every client sees the whole mix. It returns the samples and the wall time
// from the first send to the last reply.
func closedLoop(ctx context.Context, pool []*pair, clients int, d time.Duration, send func(ctx context.Context, p int) ([]byte, error)) ([]sample, time.Duration) {
	per := make([][]sample, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := c * len(pool) / clients
			for first := true; first || (time.Now().Before(deadline) && ctx.Err() == nil); first = false {
				p := next % len(pool)
				next++
				t0 := time.Now()
				body, err := send(ctx, p)
				per[c] = append(per[c], sample{pair: p, latency: time.Since(t0), body: body, err: err})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, wall
}

// runResult is the outcome of either run: operations attempted and failed,
// and the metrics to report.
type runResult struct {
	attempted, failed int
	firstErr          error
	metrics           []metric
}

// runE2E measures POST /v1/align end to end: median server start-up over
// setupStarts execs, a short warm-up, then a closed loop of the workload's
// clients for d. Every reply goes through the correctness gate.
func runE2E(ctx context.Context, w workload, pool []*pair, bin string, d time.Duration) (runResult, error) {
	var starts []float64
	var srv *server
	for i := 0; i < setupStarts; i++ {
		s, took, err := startServer(bin)
		if err != nil {
			return runResult{}, err
		}
		starts = append(starts, took.Seconds())
		if i < setupStarts-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	cl := newClient(srv.base, w.clients)
	defer cl.close()
	send := func(ctx context.Context, p int) ([]byte, error) { return cl.align(ctx, pool[p].body) }

	warm := min(time.Second, d/10)
	if err := warmUp(ctx, pool, w.clients, warm, send); err != nil {
		return runResult{}, fmt.Errorf("warm-up: %w", err)
	}
	samples, wall := closedLoop(ctx, pool, w.clients, d, send)
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return runResult{}, err
	}

	res := runResult{attempted: len(samples)}
	lat := make([]float64, len(samples))
	for i, s := range samples {
		err := s.err
		if err == nil {
			err = checkBody(pool[s.pair], s.body)
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("pair %d: %w", s.pair, err)
			}
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = ms(s.latency)
	}
	correct := res.attempted - res.failed
	res.metrics = []metric{
		{"latency_p50_ms", quantile(lat, 0.5), "ms", res.attempted},
		{"latency_p90_ms", quantile(lat, 0.9), "ms", res.attempted},
		{"throughput_rps", float64(correct) / wall.Seconds(), "1/s", correct},
		{"server_peak_rss_mib", rss, "MiB", 1},
		{"setup_s", median(starts), "s", len(starts)},
	}
	fmt.Printf("ops_failed_ratio %.6f (%d of %d)\n", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	return res, nil
}

// warmUp sends requests for d (each client at least once) and fails on the
// first error, so a broken server stops the run before measurement.
func warmUp(ctx context.Context, pool []*pair, clients int, d time.Duration, send func(ctx context.Context, p int) ([]byte, error)) error {
	samples, _ := closedLoop(ctx, pool, clients, d, send)
	for _, s := range samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}
