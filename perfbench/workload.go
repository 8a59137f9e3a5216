package main

import (
	"encoding/json"
	"fmt"

	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
)

// scheme is one scoring system: the request's matrix name and gap fields,
// and the same values as library types for the oracle and the layer calls.
type scheme struct {
	matrixName string
	matrix     *scoring.Matrix
	gap        scoring.Gap
}

var (
	dnaLinear = scheme{matrixName: "dna", matrix: scoring.DNASimple, gap: scoring.Linear(-4)}
	protAff   = scheme{matrixName: "blosum62", matrix: scoring.BLOSUM62, gap: scoring.Affine(-11, -1)}
)

// nearModel plants about 1% divergence: the low-divergence regime where the
// router picks the wavefront backend.
var nearModel = seq.MutationModel{
	SubstitutionRate: 0.008,
	InsertionRate:    0.001,
	DeletionRate:     0.001,
	MaxIndelRun:      4,
	IndelExtend:      0.5,
}

// family is one kind of pair a workload draws: alphabet, length, mutation
// channel and scoring.
type family struct {
	alphabet *seq.Alphabet
	n        int
	model    seq.MutationModel
	scheme   scheme
}

// workload is one seeded traffic mix against POST /v1/align. BENCHMARK.json
// lists the gated ones; dna-near stays runnable for diagnosis.
type workload struct {
	name string
	why  string
	// families are cycled by pair index (pair i draws families[i%len]).
	families []family
	// clients is the closed-loop concurrency of the end-to-end run and of
	// the traced run's engine and HTTP sections.
	clients int
	// pool is the number of distinct pairs generated from the seed.
	pool int
	// tracePairs is how many leading pool pairs the traced run measures
	// (a fixed count, so its cell counts repeat exactly).
	tracePairs int
}

var workloads = []workload{
	{
		name:       "dna-homolog",
		why:        "ordinary 2 kbp DNA homologs (DefaultHomology, identity ~0.79): the router's choice between BiWFA and FastLSA decides the latency",
		families:   []family{{seq.DNA, 2000, seq.DefaultHomology, dnaLinear}},
		clients:    1,
		pool:       32,
		tracePairs: 6,
	},
	{
		name:       "dna-near",
		why:        "8 kbp DNA at ~1% divergence: auto picks BiWFA; diagnostic only, its BiWFA-to-Hirschberg fallback tail leaves no end-to-end figure steady from seed to seed",
		families:   []family{{seq.DNA, 8000, nearModel, dnaLinear}},
		clients:    1,
		pool:       48,
		tracePairs: 4,
	},
	{
		name:       "protein-affine",
		why:        "2 kaa protein, BLOSUM62, affine -11/-1: routed to FastLSA by scoring, so the affine kernel and parallel wavefront carry the latency",
		families:   []family{{seq.Protein, 2000, seq.DefaultHomology, protAff}},
		clients:    1,
		pool:       32,
		tracePairs: 6,
	},
	{
		name: "short-mixed",
		why:  "alternating 200-residue DNA and protein pairs, 2 clients: decode, engine queue, routing estimate and encode dominate the latency",
		families: []family{
			{seq.DNA, 200, seq.DefaultHomology, dnaLinear},
			{seq.Protein, 200, seq.DefaultHomology, protAff},
		},
		clients:    2,
		pool:       256,
		tracePairs: 16,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// pair is one pool entry with its precomputed request body and oracle.
type pair struct {
	a, b   *seq.Sequence
	scheme scheme
	body   []byte
	// oracle is the optimal score (set by computeOracles).
	oracle int64
}

// alignRequest is the POST /v1/align body: the sequences and the scoring
// system; every other field stays at the server's default.
type alignRequest struct {
	A      string `json:"a"`
	B      string `json:"b"`
	Matrix string `json:"matrix"`
	Gap    struct {
		Open   int `json:"open,omitempty"`
		Extend int `json:"extend"`
	} `json:"gap"`
}

// pairSeed spaces the pairs of one workload seed apart: HomologousPair uses
// its seed and seed+1, so stride 2 keeps every pair's streams disjoint.
func pairSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(2*i) }

// makePool generates the workload's pairs from seed; the same seed always
// yields the same pool.
func makePool(w workload, seed int64) ([]*pair, error) {
	pool := make([]*pair, w.pool)
	for i := range pool {
		f := w.families[i%len(w.families)]
		a, b, err := seq.HomologousPair(f.n, f.alphabet, f.model, pairSeed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("pair %d: %w", i, err)
		}
		req := alignRequest{A: a.String(), B: b.String(), Matrix: f.scheme.matrixName}
		req.Gap.Open, req.Gap.Extend = f.scheme.gap.Open, f.scheme.gap.Extend
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		pool[i] = &pair{a: a, b: b, scheme: f.scheme, body: body}
	}
	return pool, nil
}
