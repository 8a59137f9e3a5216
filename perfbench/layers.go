package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastlsa"
	"fastlsa/internal/align"
	"fastlsa/internal/backend"
	"fastlsa/internal/core"
	"fastlsa/internal/fm"
	"fastlsa/internal/index"
	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/stats"
	"fastlsa/internal/theory"
	"fastlsa/internal/wfa"
)

// fullMatrixCap is the largest (m+1)(n+1) a backend without the
// LinearSpace capability is run on; above it the backend is skipped.
const fullMatrixCap = 5_000_000

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself records nothing).
type span struct {
	Name  string  `json:"name"`
	Pair  int     `json:"pair"`
	Start float64 `json:"start_us"`
	Dur   float64 `json:"dur_us"`
}

// tracer keeps the traced run's spans in memory; write dumps them at the
// end. Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name string, pair int, start time.Time, d time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Pair: pair, Start: us(start.Sub(t.t0)), Dur: us(d)})
	t.mu.Unlock()
}

// durs returns the durations (µs) of the spans named name, optionally only
// those of one pair (pair < 0 selects all).
func (t *tracer) durs(name string, pair int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (pair < 0 || s.Pair == pair) {
			out = append(out, s.Dur)
		}
	}
	return out
}

// drop forgets the spans named name (warm-up calls).
func (t *tracer) drop(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.spans[:0]
	for _, s := range t.spans {
		if s.Name != name {
			kept = append(kept, s)
		}
	}
	t.spans = kept
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerRun carries the traced run's state across its sections.
type layerRun struct {
	w       workload
	pool    []*pair
	set     []*pair // the traced pairs: the pool's first w.tracePairs
	tr      *tracer
	metrics []metric
	ops     int
	failed  int
	first   error
}

func (r *layerRun) add(name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, v, unit, n})
}

// fail records a wrong or failed operation.
func (r *layerRun) fail(err error) {
	r.failed++
	if r.first == nil {
		r.first = err
	}
}

// runLayers is the traced run: it calls each layer's public function from
// outside, on the workload's traced pairs, and derives the per-layer
// metrics from the spans it records around those calls. d is split
// between the time-boxed sections; the solve section does a fixed amount
// of work so its counts repeat exactly.
func runLayers(ctx context.Context, w workload, pool []*pair, bin string, d time.Duration, spansPath string) (runResult, error) {
	r := &layerRun{w: w, pool: pool, set: pool[:w.tracePairs], tr: &tracer{t0: time.Now()}}
	r.kernel(d / 10)
	r.route(d / 20)
	chosen, paths := r.solve()
	r.alignBuild(paths, d/20)
	if err := r.paths(ctx, bin, d/2); err != nil {
		return runResult{}, err
	}
	r.breakdown(chosen)
	if err := r.tr.write(spansPath); err != nil {
		return runResult{}, err
	}
	fmt.Printf("spans written to %s\n", spansPath)
	return runResult{attempted: r.ops, failed: r.failed, firstErr: r.first, metrics: r.metrics}, nil
}

// kernel times Kernel.Forward over each traced pair with the linear and the
// affine model, repeating the set until d has passed. kernel.cells is the
// Counters total of the first pass.
func (r *layerRun) kernel(d time.Duration) {
	models := []struct {
		name string
		mod  kernel.Model
	}{{"kernel.linear", kernel.Linear(-4)}, {"kernel.affine", kernel.Affine(-11, -1)}}
	var firstPass *stats.Counters
	cells := map[string]int64{}
	busy := map[string]time.Duration{}
	pool := memory.NewRowPool()
	deadline := time.Now().Add(d)
	for pass := 0; pass == 0 || (time.Now().Before(deadline) && pass < maxPasses(2*len(r.set))); pass++ {
		c := &stats.Counters{}
		for i, p := range r.set {
			for _, m := range models {
				k := kernel.New(p.scheme.matrix, m.mod, pool, c)
				top, left := k.LeadEdge(p.b.Len(), 0), k.LeadEdge(p.a.Len(), 0)
				row, col := k.NewEdge(p.b.Len()), k.NewEdge(p.a.Len())
				start := time.Now()
				err := k.Forward(p.a.Residues, p.b.Residues, top, left, row, col)
				took := time.Since(start)
				r.tr.add(m.name, i, start, took)
				r.ops++
				if err != nil {
					r.fail(fmt.Errorf("%s pair %d: %w", m.name, i, err))
				}
				cells[m.name] += int64(p.a.Len()) * int64(p.b.Len())
				busy[m.name] += took
				for _, e := range []kernel.Edge{top, left, row, col} {
					k.PutEdge(e)
				}
			}
		}
		if pass == 0 {
			firstPass = c
		}
	}
	for _, m := range models {
		r.add(m.name+".mcells_per_s", float64(cells[m.name])/busy[m.name].Seconds()/1e6, "Mcell/s", len(r.tr.durs(m.name, -1)))
	}
	r.add("kernel.cells", float64(firstPass.Cells.Load()), "count", 2*len(r.set))
	// Bytes computed per cell: the DP lane width times the planes of the
	// workload's own gap model, averaged over its traced pairs.
	lane := float64(reflect.TypeOf(kernel.Edge{}.H).Elem().Size())
	var planes float64
	for _, p := range r.set {
		planes += float64(kernel.FromGap(p.scheme.gap).Planes())
	}
	r.add("kernel.computed_bytes_per_cell", lane*planes/float64(len(r.set)), "B/cell", len(r.set))
}

// route times the identity estimate and the routing decision on every pool
// pair, cycling until d has passed, and records what the router chose.
func (r *layerRun) route(d time.Duration) {
	var ids []float64
	wfaPicks := 0
	deadline := time.Now().Add(d)
	for pass := 0; pass == 0 || (time.Now().Before(deadline) && pass < maxPasses(len(r.pool))); pass++ {
		for i, p := range r.pool {
			start := time.Now()
			id, ok := index.EstimateIdentity(p.a, p.b, 0)
			r.tr.add("route.estimate", i, start, time.Since(start))
			start = time.Now()
			rt := backend.Decide(p.a, p.b, p.scheme.matrix, p.scheme.gap, align.Mode{}, false)
			r.tr.add("route.decide", i, start, time.Since(start))
			if pass == 0 {
				if ok {
					ids = append(ids, id)
				}
				if rt.Backend == backend.NameWFA {
					wfaPicks++
				}
			}
		}
	}
	r.add("route.estimate_us", median(r.tr.durs("route.estimate", -1)), "us", len(r.tr.durs("route.estimate", -1)))
	r.add("route.decide_us", median(r.tr.durs("route.decide", -1)), "us", len(r.tr.durs("route.decide", -1)))
	idEst := 0.0
	if len(ids) > 0 {
		idEst = median(ids)
	}
	r.add("route.identity_est", idEst, "ratio", len(ids))
	r.add("route.wfa_share", float64(wfaPicks)/float64(len(r.pool)), "ratio", len(r.pool))
}

// maxPasses bounds the passes of a time-boxed section over n pairs so a
// section of microsecond calls records at most ~10k spans.
func maxPasses(n int) int { return max(1, 10_000/n) }

// capable reports whether backend info accepts pair p under the
// benchmark's full-matrix size cap.
func capable(info backend.Info, p *pair) bool {
	caps := info.Impl.Caps()
	switch {
	case caps.UniformScoresOnly && !wfa.Compatible(p.scheme.matrix, p.a.Alphabet, p.scheme.gap):
		return false
	case !caps.AffineGaps && !p.scheme.gap.IsLinear():
		return false
	case !caps.LinearSpace && (p.a.Len()+1)*(p.b.Len()+1) > fullMatrixCap:
		return false
	}
	return true
}

// budgeted names the backends that charge a memory.Budget, so their peak
// DP-entry footprint can be read; Hirschberg charges none.
var budgeted = map[string]bool{
	backend.NameFastLSA: true, backend.NameFullMatrix: true, backend.NameCompact: true, backend.NameWFA: true,
}

// peakEntries reruns a budgeted backend on a pair, through the package
// function its registry adapter calls, with a budget the benchmark owns, and
// returns the budget's high-water mark in DP entries.
func peakEntries(name string, p *pair) (int64, error) {
	b, err := memory.NewBudget(math.MaxInt64 / 4)
	if err != nil {
		return 0, err
	}
	a, bb, m, g := p.a, p.b, p.scheme.matrix, p.scheme.gap
	switch name {
	case backend.NameFastLSA:
		opt, perr := core.PlanOptions(a.Len(), bb.Len(), 0, 0, !g.IsLinear(), 0, 0)
		if perr != nil {
			return 0, perr
		}
		opt.Budget = b
		_, err = core.Align(a, bb, m, g, opt)
	case backend.NameFullMatrix:
		_, err = fm.Align(a, bb, m, g, b, nil)
	case backend.NameCompact:
		_, err = fm.AlignCompact(a, bb, m, g, b, nil)
	case backend.NameWFA:
		_, err = wfa.BiAlign(a, bb, m, g, wfa.Options{Budget: b})
	default:
		return 0, fmt.Errorf("backend %q charges no budget", name)
	}
	return b.Peak(), err
}

// solveReps is how many times each (pair, backend) solve is repeated; the
// median is that pair's time. Large problems run once.
func solveReps(p *pair) int {
	if p.a.Len()*p.b.Len() > 1_000_000 {
		return 1
	}
	return 5
}

// timeSolve runs backend name on traced pair i solveReps times, recording
// each run as a span, and returns the median time and the counters and
// result of the first run.
func (r *layerRun) timeSolve(span, name string, i int, p *pair, req backend.Request) (time.Duration, *stats.Counters, fm.Result) {
	bk, _ := backend.Lookup(name)
	var times []float64
	var c0 *stats.Counters
	var res0 fm.Result
	// Collect the garbage the previous backend left, so it is not charged to
	// this one, then run once untimed to refill the row pools the collection
	// emptied: the timed runs see a server's steady state.
	runtime.GC()
	if _, err := bk.Align(p.a, p.b, req); err != nil {
		r.fail(fmt.Errorf("%s pair %d: %w", span, i, err))
	}
	for rep := 0; rep < solveReps(p); rep++ {
		c := &stats.Counters{}
		req.Counters = c
		start := time.Now()
		res, err := bk.Align(p.a, p.b, req)
		took := time.Since(start)
		r.tr.add(span, i, start, took)
		r.ops++
		if err == nil && res.Score != p.oracle {
			err = fmt.Errorf("score %d, oracle %d", res.Score, p.oracle)
		}
		if err == nil {
			err = res.Path.Validate(p.a.Len(), p.b.Len())
		}
		if err == nil && align.ScorePath(p.a, p.b, res.Path, p.scheme.matrix, p.scheme.gap) != res.Score {
			err = fmt.Errorf("path does not re-score to %d", res.Score)
		}
		if err != nil {
			r.fail(fmt.Errorf("%s pair %d: %w", span, i, err))
		}
		if rep == 0 {
			c0, res0 = c, res
		}
		times = append(times, float64(took))
	}
	return time.Duration(median(times)), c0, res0
}

// solve runs every capable backend on every traced pair through
// backend.Lookup(name).Align, asserts they all reach the oracle score, and
// derives the per-backend, regret and paper-bound metrics. It returns the
// router's choice per traced pair and the FastLSA paths for the align
// section.
func (r *layerRun) solve() ([]string, []align.Path) {
	infos := backend.All()
	// P is the worker count a default request gets (Workers 0); it equals
	// the CPU count unless GOMAXPROCS is set.
	P := runtime.GOMAXPROCS(0)
	msByB := map[string][]float64{}
	cellsByB := map[string]int64{}
	peakByB := map[string]int64{}
	chosen := make([]string, len(r.set))
	paths := make([]align.Path, len(r.set))
	var regrets []float64
	var fastCells, area, t1, tp, thSeq, thPar float64
	k := 0
	for i, p := range r.set {
		chosen[i] = backend.Decide(p.a, p.b, p.scheme.matrix, p.scheme.gap, align.Mode{}, false).Backend
		times := map[string]time.Duration{}
		for _, info := range infos {
			if !capable(info, p) {
				continue
			}
			name := info.Name
			// Planned parameters, as AlgoAuto runs FastLSA; the server's
			// default worker count for every backend.
			req := backend.Request{Matrix: p.scheme.matrix, Gap: p.scheme.gap, Planned: name == backend.NameFastLSA}
			took, c, res := r.timeSolve("solve."+name, name, i, p, req)
			times[name] = took
			msByB[name] = append(msByB[name], ms(took))
			cellsByB[name] += c.Cells.Load()
			if name != backend.NameFastLSA {
				continue
			}
			paths[i] = res.Path
			fastCells += float64(c.Cells.Load())
			// Parallel efficiency T1 / (P * TP), next to the Theorem 4 model
			// on the same shape.
			req.Workers = 1
			seqT, _, _ := r.timeSolve("solve.fastlsa.seq", name, i, p, req)
			t1 += float64(seqT)
			tp += float64(took)
			m, n := p.a.Len(), p.b.Len()
			k = plannedK(m, n, !p.scheme.gap.IsLinear())
			u := tileSub(P, k)
			area += float64(m) * float64(n)
			thSeq += theory.SequentialBound(m, n, k)
			thPar += theory.ParallelBound(m, n, k, P, u, u)
		}
		best := time.Duration(math.MaxInt64)
		for _, t := range times {
			best = min(best, t)
		}
		if t, ok := times[chosen[i]]; ok {
			regrets = append(regrets, float64(t)/float64(best))
		}
		for name := range times {
			if !budgeted[name] {
				continue
			}
			peak, err := peakEntries(name, p)
			if err != nil {
				r.fail(fmt.Errorf("peak run of %s on pair %d: %w", name, i, err))
			}
			peakByB[name] = max(peakByB[name], peak)
		}
	}
	for _, info := range infos {
		name := info.Name
		n := len(msByB[name])
		v := 0.0 // 0: the backend accepted none of the traced pairs
		if n > 0 {
			v = median(msByB[name])
		}
		r.add("solve."+name+".ms", v, "ms", n)
		r.add("solve."+name+".cells", float64(cellsByB[name]), "count", n)
		if budgeted[name] {
			r.add("solve."+name+".peak_entries", float64(peakByB[name]), "count", n)
		}
	}
	r.add("route.regret", median(regrets), "ratio", len(regrets))
	rf := fastCells / area
	bound := float64(k*k) / float64((k-1)*(k-1))
	r.add("solve.fastlsa.recompute_factor", rf, "ratio", len(r.set))
	r.add("solve.fastlsa.recompute_vs_theorem2", rf/bound, "ratio", len(r.set))
	eff := t1 / (float64(P) * tp)
	model := thSeq / (float64(P) * thPar)
	r.add("solve.fastlsa.parallel_efficiency", eff, "ratio", len(r.set))
	r.add("solve.fastlsa.efficiency_vs_theorem4", eff/model, "ratio", len(r.set))
	return chosen, paths
}

// plannedK is the segment count k the planned FastLSA backend uses for an
// m x n pair with an unlimited budget.
func plannedK(m, n int, affine bool) int {
	opt, err := core.PlanOptions(m, n, 0, 0, affine, 0, 0)
	if err != nil {
		return core.DefaultK
	}
	return opt.K
}

// tileSub mirrors the core package's default tile subdivision (u = v) for
// P workers and k segments: the smallest u with u*k >= 2P.
func tileSub(workers, k int) int {
	if workers <= 1 {
		return 1
	}
	return max(1, (2*workers+k-1)/k)
}

// alignBuild times building the response from a solved path: align.New,
// Path.CIGAR and Stats, as the server does for every reply.
func (r *layerRun) alignBuild(paths []align.Path, d time.Duration) {
	deadline := time.Now().Add(d)
	for pass := 0; pass == 0 || (time.Now().Before(deadline) && pass < maxPasses(len(r.set))); pass++ {
		for i, p := range r.set {
			start := time.Now()
			al, err := align.New(p.a, p.b, paths[i], p.oracle)
			if err == nil {
				_ = al.Path.CIGAR()
				_ = al.Stats()
			}
			r.tr.add("align.build", i, start, time.Since(start))
			r.ops++
			if err != nil {
				r.fail(fmt.Errorf("align.build pair %d: %w", i, err))
			}
		}
	}
	n := len(r.tr.durs("align.build", -1))
	r.add("align.build_us", median(r.tr.durs("align.build", -1)), "us", n)
}

// loop runs a closed loop of the workload's clients over the traced pairs
// for d, recording a span per call under name unless name is empty.
func (r *layerRun) loop(ctx context.Context, name string, d time.Duration, call func(ctx context.Context, i int) error) {
	samples, _ := closedLoop(ctx, r.set, r.w.clients, d, func(ctx context.Context, i int) ([]byte, error) {
		start := time.Now()
		err := call(ctx, i)
		if name != "" {
			r.tr.add(name, i, start, time.Since(start))
		}
		return nil, err
	})
	for _, s := range samples {
		r.ops++
		if s.err != nil {
			r.fail(fmt.Errorf("%s pair %d: %w", name, s.pair, s.err))
		}
	}
}

// pairMedians returns, for every traced pair sampled in both a and b, its
// median in a and in b. Comparing paths pair by pair keeps the mix of pairs
// each loop happened to reach out of the difference.
func (r *layerRun) pairMedians(a, b func(pair int) []float64) (ma, mb []float64) {
	for i := range r.set {
		sa, sb := a(i), b(i)
		if len(sa) > 0 && len(sb) > 0 {
			ma = append(ma, median(sa))
			mb = append(mb, median(sb))
		}
	}
	return ma, mb
}

func (r *layerRun) spans(name string) func(pair int) []float64 {
	return func(pair int) []float64 { return r.tr.durs(name, pair) }
}

// paths measures the three ways a traced pair is served — direct
// fastlsa.Align, the fastlsa.Engine path (submit, wait) and POST /v1/align
// on the server binary — with the workload's concurrency, in interleaved
// rounds so drift in the host's speed affects all three alike. HTTP passes
// over the pairs alternate between recording a span per request and only
// timing it, for trace.overhead_share.
func (r *layerRun) paths(ctx context.Context, bin string, d time.Duration) error {
	srv, _, err := startServer(bin)
	if err != nil {
		return err
	}
	defer srv.stop()
	cl := newClient(srv.base, r.w.clients)
	defer cl.close()
	var mu sync.Mutex
	var waits []float64
	en := fastlsa.NewEngine(fastlsa.EngineConfig{ObserveQueueWait: func(w time.Duration) {
		mu.Lock()
		waits = append(waits, us(w))
		mu.Unlock()
	}})
	defer en.Shutdown(context.Background())

	check := func(i int, al *fastlsa.Alignment) error {
		if al.Score != r.set[i].oracle {
			return fmt.Errorf("score %d, oracle %d", al.Score, r.set[i].oracle)
		}
		return nil
	}
	opts := func(p *pair) fastlsa.Options { return fastlsa.Options{Matrix: p.scheme.matrix, Gap: p.scheme.gap} }
	direct := func(ctx context.Context, i int) error {
		p := r.set[i]
		al, err := fastlsa.Align(p.a, p.b, opts(p))
		if err != nil {
			return err
		}
		return check(i, al)
	}
	engine := func(ctx context.Context, i int) error {
		p := r.set[i]
		job, err := en.SubmitAlign(p.a, p.b, opts(p), fastlsa.JobOptions{})
		if err != nil {
			return err
		}
		res, err := job.Wait(ctx)
		if err != nil {
			return err
		}
		return check(i, res.(*fastlsa.Alignment))
	}
	var reqBytes, respBytes, replies float64
	plain := map[int][]float64{}
	var calls atomic.Int64
	web := func(ctx context.Context, i int) error {
		p := r.set[i]
		traced := (calls.Add(1)-1)/int64(len(r.set))%2 == 0
		start := time.Now()
		body, err := cl.align(ctx, p.body)
		took := time.Since(start)
		if traced {
			r.tr.add("http", i, start, took)
		} else {
			mu.Lock()
			plain[i] = append(plain[i], us(took))
			mu.Unlock()
		}
		if err != nil {
			return err
		}
		mu.Lock()
		reqBytes += float64(len(p.body))
		respBytes += float64(len(body))
		replies++
		mu.Unlock()
		return checkBody(p, body)
	}
	if err := warmUp(ctx, r.set, r.w.clients, d/10, func(ctx context.Context, i int) ([]byte, error) { return nil, web(ctx, i) }); err != nil {
		return fmt.Errorf("http warm-up: %w", err)
	}
	r.tr.drop("http")
	mu.Lock()
	clear(plain)
	waits, reqBytes, respBytes, replies = nil, 0, 0, 0
	mu.Unlock()

	const rounds = 3
	for round := 0; round < rounds; round++ {
		r.loop(ctx, "direct", d/(3*rounds), direct)
		r.loop(ctx, "engine", d/(3*rounds), engine)
		r.loop(ctx, "", d/(3*rounds), web)
	}

	mu.Lock()
	defer mu.Unlock()
	nEngine, nWeb := len(r.tr.durs("engine", -1)), len(r.tr.durs("http", -1))
	r.add("engine.queue_wait_us", median(waits), "us", len(waits))
	e, dr := r.pairMedians(r.spans("engine"), r.spans("direct"))
	r.add("engine.overhead_us", mean(e)-mean(dr), "us", nEngine)
	r.add("engine.rejected", float64(en.Stats().Rejected), "count", nEngine)
	h, e := r.pairMedians(r.spans("http"), r.spans("engine"))
	r.add("http.overhead_us", mean(h)-mean(e), "us", nWeb)
	r.add("http.request_bytes", reqBytes/replies, "B", int(replies))
	r.add("http.response_bytes", respBytes/replies, "B", int(replies))
	traced, untraced := r.pairMedians(r.spans("http"), func(pair int) []float64 { return plain[pair] })
	r.add("trace.overhead_share", mean(traced)/mean(untraced)-1, "ratio", int(replies))
	return nil
}

// breakdown closes the per-layer split: per traced pair, the direct
// fastlsa.Align time minus the route, solve (router's choice) and align
// spans is what no layer accounts for; its sum over the pairs, as a share
// of the HTTP time, is breakdown.unattributed_share. (Engine and HTTP
// overheads are differences of adjacent paths, so they close exactly.)
func (r *layerRun) breakdown(chosen []string) {
	var rest, wall float64
	for i := range r.set {
		h := r.tr.durs("http", i)
		if len(h) == 0 {
			continue
		}
		attributed := mean(r.tr.durs("route.decide", i)) + mean(r.tr.durs("solve."+chosen[i], i)) + mean(r.tr.durs("align.build", i))
		rest += mean(r.tr.durs("direct", i)) - attributed
		wall += mean(h)
	}
	r.add("breakdown.unattributed_share", rest/wall, "ratio", len(r.set))
}
