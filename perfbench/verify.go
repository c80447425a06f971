package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"tmark/internal/artifact"
	"tmark/internal/hin"
	"tmark/internal/serve"
	"tmark/internal/stream"
	"tmark/internal/tmark"
)

// verifyTop is the ranked-node depth requested with scores:true and
// compared by the accelerated-tier check.
const verifyTop = 10

// tieTol is the score gap below which two nodes count as tied: the
// accelerated tier converges to the same fixed point within ε, so the
// order of two nodes whose exact scores differ by less than this is not
// a ranking disagreement.
const tieTol = 1e-7

// checker accumulates correctness findings; any failure fails the run.
type checker struct {
	failures []string
	failed   int
	passed   map[string]int // check name → passes
}

func newChecker() *checker { return &checker{passed: map[string]int{}} }

func (ck *checker) failf(format string, args ...any) {
	ck.failed++
	if len(ck.failures) < 20 {
		ck.failures = append(ck.failures, fmt.Sprintf(format, args...))
	}
}

func (ck *checker) pass(name string) { ck.passed[name]++ }

func (ck *checker) ok() bool { return ck.failed == 0 }

func (ck *checker) summary() string {
	names := make([]string, 0, len(ck.passed))
	for n := range ck.passed {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, ck.passed[n])
	}
	return strings.Join(parts, " ")
}

// classified is one answered classify call with its decoded response.
type classified struct {
	c *call
	r *serve.ClassifyResponse
}

// decodeClassify decodes every answered classify call and checks the
// invariants every response must hold: the tier echo, a ranked node
// list of finite descending scores, a full link ranking, and no
// cancellation.
func decodeClassify(ck *checker, calls []*call, relations int) []classified {
	var out []classified
	for _, c := range calls {
		if c.kind != kindClassify || !c.ok() {
			continue
		}
		var r serve.ClassifyResponse
		if err := json.Unmarshal(c.resp, &r); err != nil {
			ck.failf("request %d: undecodable response: %v", c.id, err)
			continue
		}
		wantTop := verifyTop
		if !c.scores {
			wantTop = serve.DefaultTopNodes
		}
		switch {
		case r.Quality != c.quality:
			ck.failf("request %d: asked quality %s, answered %s", c.id, c.quality, r.Quality)
		case r.Stopped != "":
			ck.failf("request %d: stopped: %s", c.id, r.Stopped)
		case len(r.TopNodes) != wantTop:
			ck.failf("request %d: %d ranked nodes, want %d", c.id, len(r.TopNodes), wantTop)
		case len(r.Links) != relations:
			ck.failf("request %d: %d ranked links, want %d", c.id, len(r.Links), relations)
		case c.scores && len(r.Scores) == 0:
			ck.failf("request %d: scores requested but absent", c.id)
		case !descendingFinite(r.TopNodes):
			ck.failf("request %d: ranked node scores not finite and descending", c.id)
		default:
			ck.pass("response_shape")
			out = append(out, classified{c, &r})
		}
	}
	return out
}

func descendingFinite(ns []serve.NodeScore) bool {
	for i, n := range ns {
		if math.IsNaN(n.Score) || math.IsInf(n.Score, 0) || (i > 0 && n.Score > ns[i-1].Score) {
			return false
		}
	}
	return true
}

// onSimplex reports whether x is a finite probability vector.
func onSimplex(x []float64) bool {
	var sum float64
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) <= 1e-6
}

// topOrder ranks node indices by score, descending, ties by lower
// index — the order the server's ranked node list uses.
func topOrder(x []float64, k int) []int {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return x[idx[a]] > x[idx[b]] })
	if k < len(idx) {
		idx = idx[:k]
	}
	return idx
}

// checkSampled compares one scores:true response with an in-process
// solve on model m: exact answers must be bitwise equal to SolveColumn,
// accelerated answers must rank the top nodes as the exact solve does
// (up to ties), and fast answers must lie on the simplex.
func checkSampled(ctx context.Context, ck *checker, m *tmark.Model, cr classified) {
	c, r := cr.c, cr.r
	if c.quality == "fast" {
		if !onSimplex(r.Scores) {
			ck.failf("request %d: fast scores are not a finite probability vector", c.id)
			return
		}
		ck.pass("fast_simplex")
		return
	}
	ref, err := m.SolveColumn(ctx, tmark.ColumnQuery{Seeds: c.seeds, ICA: c.ica, Quality: tmark.QualityExact})
	if err != nil {
		ck.failf("request %d: in-process solve: %v", c.id, err)
		return
	}
	if len(r.Scores) != len(ref.X) {
		ck.failf("request %d: %d scores, in-process solve has %d", c.id, len(r.Scores), len(ref.X))
		return
	}
	switch c.quality {
	case "exact":
		for i := range ref.X {
			if math.Float64bits(r.Scores[i]) != math.Float64bits(ref.X[i]) {
				ck.failf("request %d: exact score of node %d is %v, in-process SolveColumn gives %v",
					c.id, i, r.Scores[i], ref.X[i])
				return
			}
		}
		if r.Iterations != ref.Iterations {
			ck.failf("request %d: %d iterations, in-process SolveColumn took %d", c.id, r.Iterations, ref.Iterations)
			return
		}
		ck.pass("exact_bitwise")
	case "accelerated":
		if !onSimplex(r.Scores) {
			ck.failf("request %d: accelerated scores are not a finite probability vector", c.id)
			return
		}
		want := topOrder(ref.X, verifyTop)
		for p, ns := range r.TopNodes {
			if ns.Node != want[p] && math.Abs(ref.X[ns.Node]-ref.X[want[p]]) > tieTol {
				ck.failf("request %d: accelerated rank %d is node %d, exact solve ranks node %d there",
					c.id, p, ns.Node, want[p])
				return
			}
		}
		ck.pass("accelerated_ranking")
	}
}

// modelHash is the wire identity of a model: sha256: plus the content
// hash of its canonical encoding.
func modelHash(g *hin.Graph, cfg tmark.Config, m *tmark.Model) (string, error) {
	data, err := artifact.EncodeModel(g, cfg, m.Substrate())
	if err != nil {
		return "", err
	}
	return "sha256:" + artifact.Hash(data), nil
}

func loadGraph(t *tracer, path string) (*hin.Graph, error) {
	var g *hin.Graph
	var err error
	t.timed("hin.load", 0, -1, func() { g, err = hin.LoadFile(path) })
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return g, nil
}

func buildModel(t *tracer, g *hin.Graph, cfg tmark.Config) (*tmark.Model, time.Duration, error) {
	var m *tmark.Model
	var err error
	d := t.timed("tmark.build", 0, -1, func() { m, err = tmark.New(g, cfg) })
	if err != nil {
		return nil, 0, fmt.Errorf("build model: %w", err)
	}
	return m, d, nil
}

// ingestAck is one answered ingest call with its decoded response.
type ingestAck struct {
	c *call
	r *serve.IngestResponse
}

// ingestChain decodes the ingest calls in send order and checks what can
// be checked without replaying: every call answered, every duplicate
// resend flagged and pointing at its original's version, and each fresh
// batch applied on top of the previous one. It returns the fresh batches
// to replay; ok is false when a failed call leaves the server's state
// unknown.
func ingestChain(ck *checker, calls []*call) (fresh []ingestAck, ok bool) {
	byBatch := map[int]*serve.IngestResponse{}
	prev := ""
	for _, c := range calls {
		if c.kind != kindIngest {
			continue
		}
		if !c.ok() {
			ck.failf("ingest %s did not complete (status %d, err %v): server state unknown", c.key, c.status, c.err)
			return fresh, false
		}
		var r serve.IngestResponse
		if err := json.Unmarshal(c.resp, &r); err != nil {
			ck.failf("ingest %s: undecodable response: %v", c.key, err)
			return fresh, false
		}
		if c.dup {
			orig := byBatch[c.batch]
			switch {
			case !r.Duplicate:
				ck.failf("ingest %s: resend not flagged duplicate", c.key)
			case orig == nil || r.NewHash != orig.NewHash || r.Seq != orig.Seq:
				ck.failf("ingest %s: duplicate answered version %d %s, original sealed %v", c.key, r.Seq, r.NewHash, orig)
			default:
				ck.pass("duplicate_resend")
			}
			continue
		}
		if r.Duplicate {
			ck.failf("ingest %s: fresh batch answered as duplicate", c.key)
			return fresh, false
		}
		if prev != "" && r.OldHash != prev {
			ck.failf("ingest %s applied on %s, previous batch sealed %s", c.key, r.OldHash, prev)
		}
		prev = r.NewHash
		byBatch[c.batch] = &r
		fresh = append(fresh, ingestAck{c, &r})
	}
	return fresh, true
}

// checkReplayed compares one replayed batch with the server's answer.
func checkReplayed(ck *checker, a ingestAck, res *stream.ApplyResult) {
	r := a.r
	switch {
	case "sha256:"+res.NewHash != r.NewHash:
		ck.failf("ingest %s: server sealed %s, in-process replay gives sha256:%s", a.c.key, r.NewHash, res.NewHash)
	case res.Seq != r.Seq || res.Changes != r.Changes || res.TouchedColumns != r.TouchedColumns:
		ck.failf("ingest %s: server (seq %d, %d changes, %d columns) differs from replay (seq %d, %d changes, %d columns)",
			a.c.key, r.Seq, r.Changes, r.TouchedColumns, res.Seq, res.Changes, res.TouchedColumns)
	default:
		ck.pass("ingest_replay_hash")
	}
}

// sampledByHash groups the scores:true responses by the model version
// that answered them.
func sampledByHash(cls []classified) map[string][]classified {
	out := map[string][]classified{}
	for _, cr := range cls {
		if cr.c.scores {
			out[cr.r.ModelHash] = append(out[cr.r.ModelHash], cr)
		}
	}
	return out
}
