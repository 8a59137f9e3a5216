package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"fastlsa"
)

// wantsStream reports whether a /v1/search request asked for the NDJSON
// stream: every GET does, a POST opts in with ?stream=1, "stream": true, or
// an application/x-ndjson Accept header. main.go routes streaming requests
// around the buffering TimeoutHandler using the same predicate.
func wantsStream(r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	if r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// streamWriter serialises NDJSON events onto a chunked response, flushing
// after every line so hits reach the client as they are found. Events come
// from two goroutine families — the handler itself and the search workers'
// OnHit callbacks, which can outlive the handler when a client disconnects —
// so every write holds the lock and a closed writer drops late events.
type streamWriter struct {
	mu     sync.Mutex
	enc    *json.Encoder
	flush  func()
	closed bool
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	sw := &streamWriter{enc: json.NewEncoder(w), flush: func() {}}
	if f, ok := w.(http.Flusher); ok {
		sw.flush = f.Flush
	}
	return sw
}

// send writes one event line and flushes it. No-op once closed.
func (sw *streamWriter) send(v any) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.sendLocked(v)
}

func (sw *streamWriter) sendLocked(v any) {
	if sw.closed {
		return
	}
	if err := sw.enc.Encode(v); err != nil {
		sw.closed = true
		return
	}
	sw.flush()
}

func (sw *streamWriter) close() {
	sw.mu.Lock()
	sw.closed = true
	sw.mu.Unlock()
}

// Stream events. Every line is one JSON object tagged by "type":
//
//	{"type":"query", ...}    echo of the parsed request, sent first
//	{"type":"hit", ...}      a provisional hit entering the running top-K
//	{"type":"summary", ...}  final ranked hits (with alignments) + funnel
//	{"type":"error", ...}    terminal failure after the stream began
type streamQueryEvent struct {
	Type     string `json:"type"`
	ID       string `json:"id"`
	Corpus   int    `json:"corpus"`
	Q        int    `json:"q"`
	TopK     int    `json:"topK"`
	MinScore int64  `json:"minScore"`
}

type streamHitEvent struct {
	Type     string  `json:"type"`
	Index    int     `json:"index"`
	ID       string  `json:"id"`
	Score    int64   `json:"score"`
	EValue   float64 `json:"eValue,omitempty"`
	BitScore float64 `json:"bitScore,omitempty"`
}

type streamSummaryEvent struct {
	Type string      `json:"type"`
	Hits []searchHit `json:"hits"`
	funnelInfo
	Stats     *statsInfo `json:"stats,omitempty"`
	ElapsedMs int64      `json:"elapsedMs"`
}

type streamErrorEvent struct {
	Type  string `json:"type"`
	Error string `json:"error"`
}

// corpusQuery is a validated search against the server's loaded corpus,
// shared by the GET handler and the streaming POST branch.
type corpusQuery struct {
	query     *fastlsa.Sequence
	matrix    *fastlsa.Matrix
	gap       fastlsa.Gap
	topK      int
	minScore  int64
	maxEValue float64
	fitStats  bool
	statsSeed int64
	workers   int
}

// corpusQueryFromRequest maps a searchRequest (with no inline database) onto
// the loaded corpus.
func (s *server) corpusQueryFromRequest(req searchRequest) (corpusQuery, error) {
	cq := corpusQuery{
		topK:      req.TopK,
		minScore:  req.MinScore,
		maxEValue: req.MaxEValue,
		fitStats:  req.FitStats,
		statsSeed: req.StatsSeed,
		workers:   req.Workers,
	}
	if err := s.fillCorpusQuery(&cq, req.Query, req.QueryID, req.Matrix, req.Gap); err != nil {
		return corpusQuery{}, err
	}
	return cq, nil
}

// corpusQueryFromURL parses the GET /v1/search query string.
func (s *server) corpusQueryFromURL(r *http.Request) (corpusQuery, error) {
	q := r.URL.Query()
	var cq corpusQuery
	var err error
	atoi := func(name string) (int, error) {
		v := q.Get(name)
		if v == "" {
			return 0, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("invalid %s %q", name, v)
		}
		return n, nil
	}
	if cq.topK, err = atoi("topK"); err != nil {
		return corpusQuery{}, err
	}
	if cq.workers, err = atoi("workers"); err != nil {
		return corpusQuery{}, err
	}
	var n int
	if n, err = atoi("minScore"); err != nil {
		return corpusQuery{}, err
	}
	cq.minScore = int64(n)
	if v := q.Get("maxEValue"); v != "" {
		if cq.maxEValue, err = strconv.ParseFloat(v, 64); err != nil {
			return corpusQuery{}, fmt.Errorf("invalid maxEValue %q", v)
		}
	}
	cq.fitStats = q.Get("fitStats") == "1"
	if v := q.Get("statsSeed"); v != "" {
		if cq.statsSeed, err = strconv.ParseInt(v, 10, 64); err != nil {
			return corpusQuery{}, fmt.Errorf("invalid statsSeed %q", v)
		}
	}
	var gap gapSpec
	if n, err = atoi("gap"); err != nil {
		return corpusQuery{}, err
	}
	gap.Extend = n
	if err := s.fillCorpusQuery(&cq, q.Get("q"), q.Get("id"), q.Get("matrix"), gap); err != nil {
		return corpusQuery{}, err
	}
	return cq, nil
}

// fillCorpusQuery resolves the scoring system against the corpus alphabet
// and validates the query letters.
func (s *server) fillCorpusQuery(cq *corpusQuery, letters, id, matrixName string, gap gapSpec) error {
	alphabet := s.corpus.Seqs[0].Alphabet
	if matrixName == "" {
		matrixName = defaultMatrixFor(alphabet)
	}
	matrix, err := fastlsa.MatrixByName(matrixName)
	if err != nil {
		return err
	}
	if matrix.Alphabet.Name != alphabet.Name {
		return fmt.Errorf("matrix %s is for the %s alphabet; the corpus is %s", matrixName, matrix.Alphabet.Name, alphabet.Name)
	}
	if err := s.cfg.checkLen(len(letters), "query"); err != nil {
		return err
	}
	cq.query, err = fastlsa.NewSequence(orDefault(id, "query"), letters, alphabet)
	if err != nil {
		return err
	}
	if cq.query.Len() == 0 {
		return fmt.Errorf("empty query")
	}
	cq.matrix = matrix
	cq.gap = fastlsa.Linear(-12)
	if gap != (gapSpec{}) {
		if gap.Open != 0 {
			return fmt.Errorf("search supports linear gaps only")
		}
		cq.gap = fastlsa.Linear(gap.Extend)
	}
	if cq.workers == 0 {
		cq.workers = s.cfg.DefaultWorkers
	}
	return nil
}

// defaultMatrixFor picks the natural matrix for a corpus alphabet.
func defaultMatrixFor(a *fastlsa.Alphabet) string {
	switch a.Name {
	case "dna":
		return "dna"
	case "dna-iupac":
		return "dna-iupac"
	default:
		return "blosum62"
	}
}

// handleSearchGET streams a corpus search as NDJSON:
//
//	GET /v1/search?q=ACGT...&topK=5&minScore=1400
func (s *server) handleSearchGET(w http.ResponseWriter, r *http.Request) {
	if !s.allowSearch(w, r) {
		return
	}
	if s.corpus == nil {
		writeErr(w, http.StatusUnprocessableEntity, "no corpus loaded (start the server with -corpus)")
		return
	}
	cq, err := s.corpusQueryFromURL(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveSearchStream(w, r, cq)
}

// allowSearch spends one rate-limit token; on exhaustion it answers 429
// with a Retry-After hint and reports false.
func (s *server) allowSearch(w http.ResponseWriter, r *http.Request) bool {
	ok, wait := s.limiter.allow(clientKey(r), time.Now())
	if ok {
		return true
	}
	w.Header().Set("Retry-After", retryAfterSeconds(wait))
	writeJSON(w, http.StatusTooManyRequests, apiError{
		Error:        "search rate limit exceeded",
		RetryAfterMs: wait.Milliseconds(),
	})
	return false
}

// serveSearchStream runs one corpus search through the engine, emitting
// NDJSON events as the scan progresses. An admission or submission failure
// is an ordinary error response; once the job is queued the response
// commits to 200 with the query event first, and later failures arrive as a
// terminal {"type":"error"} line.
func (s *server) serveSearchStream(w http.ResponseWriter, r *http.Request, cq corpusQuery) {
	ctx := r.Context()
	if s.cfg.StreamTimeout > 0 {
		// Streaming bypasses the TimeoutHandler (it buffers whole responses),
		// so the deadline rides on the request context instead.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.StreamTimeout)
		defer cancel()
	}

	start := time.Now()
	sw := newStreamWriter(w)
	defer sw.close()
	counters := s.metrics.Derive(nil)
	rec := fastlsa.NewRecorder(0)
	task := s.corpusSearchTask(cq, counters, rec, func(h fastlsa.SearchHit) {
		sw.send(streamHitEvent{
			Type: "hit", Index: h.Index, ID: h.ID, Score: h.Score,
			EValue: h.EValue, BitScore: h.BitScore,
		})
	})
	// Hold the writer until the 200 and the query event are out: the job may
	// start, and report hits, before submitSync returns.
	sw.mu.Lock()
	j, err := s.submitSync(ctx, "search-stream", rec, task)
	if err != nil {
		sw.mu.Unlock()
		s.writeTaskErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // disable proxy buffering
	w.WriteHeader(http.StatusOK)
	sw.sendLocked(streamQueryEvent{
		Type: "query", ID: cq.query.ID,
		Corpus: s.corpus.Len(), Q: s.corpus.Index.Q(),
		TopK: cq.topK, MinScore: cq.minScore,
	})
	sw.mu.Unlock()
	res, err := j.Wait(ctx)
	if err != nil {
		sw.send(streamErrorEvent{Type: "error", Error: err.Error()})
		return
	}
	resp := res.(searchResponse)
	sw.send(streamSummaryEvent{
		Type:       "summary",
		Hits:       resp.Hits,
		funnelInfo: *resp.Funnel,
		Stats:      resp.Stats,
		ElapsedMs:  time.Since(start).Milliseconds(),
	})
}

// corpusSearchTask is the engine task for a corpus search: seed filter +
// early-abandon verify + reconstruction, reporting the funnel alongside the
// ranked hits. rec (when non-nil) is the job's flight recorder; onHit may be
// nil (buffered responses).
func (s *server) corpusSearchTask(cq corpusQuery, counters *fastlsa.Counters, rec *fastlsa.Recorder, onHit func(fastlsa.SearchHit)) func(ctx context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		opt := fastlsa.SearchOptions{
			Matrix:    cq.matrix,
			Gap:       cq.gap,
			TopK:      cq.topK,
			MinScore:  cq.minScore,
			MaxEValue: cq.maxEValue,
			Workers:   cq.workers,
			Context:   ctx,
			Counters:  counters,
			Recorder:  rec,
			Index:     s.corpus.Index,
			Probe:     &fastlsa.SearchProbe{},
			OnHit:     onHit,
		}
		var resp searchResponse
		if cq.fitStats || cq.maxEValue > 0 {
			params, err := fastlsa.EstimateStatistics(cq.matrix, cq.gap, 0, 0, cq.statsSeed)
			if err != nil {
				return nil, fmt.Errorf("statistics fit: %w", err)
			}
			opt.Stats = &params
			resp.Stats = &statsInfo{Lambda: params.Lambda, K: params.K}
		}
		hits, err := fastlsa.Search(cq.query, s.corpus.Seqs, opt)
		if err != nil {
			return nil, err
		}
		resp.Hits = renderHits(hits)
		resp.Funnel = &funnelInfo{
			Scanned:     opt.Probe.Scanned,
			Candidates:  opt.Probe.Candidates,
			Examined:    counters.SearchExamined.Load(),
			Selectivity: opt.Probe.Selectivity,
		}
		return resp, nil
	}
}

// renderHits converts library hits to their JSON form.
func renderHits(hits []fastlsa.SearchHit) []searchHit {
	out := make([]searchHit, 0, len(hits))
	for _, h := range hits {
		sh := searchHit{
			Index: h.Index, ID: h.ID, Score: h.Score,
			EValue: h.EValue, BitScore: h.BitScore,
		}
		if h.Alignment != nil {
			sh.CIGAR = h.Alignment.Path.CIGAR()
			sh.StartA, sh.EndA = h.Alignment.StartA, h.Alignment.EndA
			sh.StartB, sh.EndB = h.Alignment.StartB, h.Alignment.EndB
		}
		out = append(out, sh)
	}
	return out
}
