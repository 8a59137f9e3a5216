package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"fastlsa"
	"fastlsa/internal/align"
)

// computeOracles sets every pair's optimal score with the linear-space
// score-only sweep, independently of the backend the server will route to.
// Pairs are scored on GOMAXPROCS goroutines.
func computeOracles(pool []*pair) error {
	errs := make([]error, len(pool))
	next := make(chan int, len(pool))
	for i := range pool {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p := pool[i]
				p.oracle, errs[i] = fastlsa.Score(p.a, p.b, fastlsa.Options{Matrix: p.scheme.matrix, Gap: p.scheme.gap})
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("oracle for pair %d: %w", i, err)
		}
	}
	return nil
}

// alignReply is the part of the POST /v1/align reply the gate checks.
type alignReply struct {
	Score int64  `json:"score"`
	CIGAR string `json:"cigar"`
}

// checkReply is the correctness gate: the score must equal the oracle, and
// the CIGAR must parse to a valid path over the whole pair that re-scores
// to that same score.
func checkReply(p *pair, score int64, cigar string) error {
	if score != p.oracle {
		return fmt.Errorf("score %d, oracle %d", score, p.oracle)
	}
	path, err := align.ParseCIGAR(cigar)
	if err != nil {
		return fmt.Errorf("cigar: %w", err)
	}
	if err := path.Validate(p.a.Len(), p.b.Len()); err != nil {
		return err
	}
	if got := align.ScorePath(p.a, p.b, path, p.scheme.matrix, p.scheme.gap); got != score {
		return fmt.Errorf("cigar re-scores to %d, reply says %d", got, score)
	}
	return nil
}

// checkBody decodes a reply body and runs the gate on it.
func checkBody(p *pair, body []byte) error {
	var r alignReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	return checkReply(p, r.Score, r.CIGAR)
}
