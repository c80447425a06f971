package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"tmark/internal/dataset"
	"tmark/internal/hin"
	"tmark/internal/serve"
	"tmark/internal/stream"
)

// workload is one traffic mix driven against tmarkd. Every field is a
// constant of the benchmark: the seed changes the generated graph and
// request schedule, never the shape of the load.
type workload struct {
	name string
	why  string
	// authorsPerArea sizes the DBLP generator: n = 4·authorsPerArea.
	authorsPerArea int
	// topK is tmarkd's -topk: 0 keeps the dense n×n feature channel.
	topK int
	// classifyRate and ingestRate are the offered open-loop rates
	// (requests and batches per second).
	classifyRate float64
	ingestRate   float64
	// ingestMain sends the ingest stream into the main model, with
	// tmarkd -model-dir and -wal-dir, on a lane of its own while the
	// other lane carries the classify traffic. Otherwise the ingest
	// stream is a write probe into a small side model (see probeAuthors)
	// and classify requests take whichever lane is free.
	ingestMain bool
	// limit is the workload's classify latency limit (classify_limit_ms).
	limit time.Duration
}

// workloads are the benchmark's traffic mixes. The rates sit well below
// what a two-connection closed loop sustains on a 2-core host, so the
// queue stays bounded and latency percentiles measure service, not a
// growing backlog.
var workloads = []workload{
	{
		name:           "classify-dense",
		why:            "n=600 with the dense feature channel: the n×n w_matvec dominates each solve, so W-kernel and tier gains show here",
		authorsPerArea: 150, topK: 0,
		classifyRate: 24, ingestRate: 8,
		limit: 200 * time.Millisecond,
	},
	{
		name:           "classify-sparse",
		why:            "n=4000 with top-8 features: O/R contractions, the HTTP/JSON path and the model build dominate",
		authorsPerArea: 1000, topK: 8,
		classifyRate: 24, ingestRate: 8,
		limit: 200 * time.Millisecond,
	},
	{
		name:           "ingest-mixed",
		why:            "n=2000 top-8: sealed, WAL-logged ingests with warm re-solves beside classify reads on the same model",
		authorsPerArea: 500, topK: 8,
		classifyRate: 24, ingestRate: 6,
		ingestMain: true,
		limit:      200 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// The fixed request mix of every workload.
const (
	shareAccelerated = 0.25 // quality=accelerated
	shareFast        = 0.25 // quality=fast; the rest are exact
	shareICA         = 0.05 // ica:true
	shareScores      = 0.04 // scores:true, the sample the checks compare
	shareDuplicate   = 0.05 // ingest resends of the previous batch
	maxSeeds         = 32   // seeds per classify request: 1..maxSeeds
	deltasPerBatch   = 16
	probeAuthors     = 100 // side model of the write probe: n = 400
	warmupSeconds    = 1.0 // open-loop warm-up before the measured window
	passes           = 3   // the measured window repeats one schedule this often
	setupIngests     = 2   // ingests that complete the set-up phase
	mainModel        = "bench"
	probeModel       = "probe"
)

// callKind tells classify requests from ingest batches.
type callKind int

const (
	kindClassify callKind = iota
	kindIngest
)

// call is one scheduled request and, once sent, its outcome.
type call struct {
	id   int
	kind callKind
	// due is the scheduled send time as an offset from the phase start.
	due time.Duration
	// slot numbers the arrival a measured call fills; the passes of the
	// measured window repeat the same slots (see schedule).
	slot int
	// lane pins the call to one connection; -1 lets any lane take it.
	lane int
	body []byte

	// Classify fields.
	quality string
	seeds   []int
	ica     bool
	scores  bool

	// Ingest fields: key is the Idempotency-Key; batch indexes the
	// original batch (a duplicate resend shares its original's index).
	key    string
	batch  int
	dup    bool
	deltas []stream.Delta

	// Outcome, filled by the lane that sent the call.
	release, send, done time.Time
	status              int
	reason              string // 503 reason from the error body
	err                 error  // transport error or deadline
	resp                []byte
}

// inputs is everything one seed determines: the graphs (as the hin
// JSON tmarkd loads) and the request schedule of each phase.
type inputs struct {
	graphJSON []byte
	probeJSON []byte // nil when the ingest stream targets the main model
	graph     *hin.Graph
	// setup ingests complete each set-up phase (closed loop).
	setup []*call
	// warm and measured are the open-loop phases.
	warm     []*call
	measured []*call
}

// ingestModel is the model the workload's ingest stream mutates.
func (w workload) ingestModel() string {
	if w.ingestMain {
		return mainModel
	}
	return probeModel
}

// makeInputs generates the workload's graph and its seeded schedules for
// a measured window of the given length. The same seed always yields the
// same bytes and the same schedule.
func makeInputs(w workload, seed int64, window time.Duration) (*inputs, error) {
	cfg := dataset.DefaultDBLPConfig(seed)
	cfg.AuthorsPerArea = w.authorsPerArea
	g := dataset.DBLP(cfg)
	in := &inputs{graph: g}
	var err error
	if in.graphJSON, err = graphBytes(g); err != nil {
		return nil, err
	}
	ing := g
	if !w.ingestMain {
		pcfg := dataset.DefaultDBLPConfig(seed + 1)
		pcfg.AuthorsPerArea = probeAuthors
		ing = dataset.DBLP(pcfg)
		if in.probeJSON, err = graphBytes(ing); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	dg := newDeltaGen(ing)
	for i := 0; i < setupIngests; i++ {
		in.setup = append(in.setup, dg.batch(rng, ingestLane, false))
	}
	in.warm = schedule(rng, w, g, dg, time.Duration(warmupSeconds*float64(time.Second)), 1)
	in.measured = schedule(rng, w, g, dg, window, passes)
	for _, c := range in.measured {
		c.id += len(in.warm)
	}
	for _, c := range in.setup {
		c.id = -1
	}
	if err := encodeBodies(w, in); err != nil {
		return nil, err
	}
	return in, nil
}

// The lanes: ingest batches always take lane 1. Classify requests take
// lane 0 when the ingest stream targets the main model, else any lane.
const ingestLane = 1

func classifyLane(w workload) int {
	if w.ingestMain {
		return 0
	}
	return -1
}

// schedule draws one open-loop schedule over span/passes and repeats it
// passes times back to back. A classify request is resent verbatim in
// every pass, so each one is timed passes times and the metrics can keep
// its best time (see slotBest). Ingest batches cannot be resent without
// becoming duplicates, so each pass fills the same arrival slots with
// fresh batches, duplicate resends included, from the evolving graph.
// Calls come back sorted by due time with ids in that order.
func schedule(rng *rand.Rand, w workload, g *hin.Graph, dg *deltaGen, span time.Duration, passes int) []*call {
	pass := span / time.Duration(passes)
	secs := pass.Seconds()
	cl := classifyCalls(rng, g, arrivals(rng, w.classifyRate, secs), classifyLane(w))
	ingDue := arrivals(rng, w.ingestRate, secs)
	dups := make([]bool, len(ingDue))
	for i := range dups {
		dups[i] = rng.Float64() < shareDuplicate
	}
	var all []*call
	for p := 0; p < passes; p++ {
		off := time.Duration(p) * pass
		for i, c := range cl {
			r := *c
			r.due, r.slot = c.due+off, i
			all = append(all, &r)
		}
		for i, due := range ingDue {
			c := dg.batch(rng, ingestLane, dups[i])
			c.due, c.slot = due+off, len(cl)+i
			all = append(all, c)
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].due < all[b].due })
	for i, c := range all {
		c.id = i
	}
	return all
}

func graphBytes(g *hin.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("encode graph: %w", err)
	}
	return buf.Bytes(), nil
}

// arrivals draws an open-loop Poisson schedule over [0, secs) at the
// given rate, conditioned on its expected count: round(rate·secs)
// arrival times, each uniform on the window, sorted. Conditioning fixes
// the sample size (and so the percentile ranks) across seeds while the
// gaps stay exponential-like.
func arrivals(rng *rand.Rand, rate, secs float64) []time.Duration {
	n := int(math.Round(rate * secs))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * secs * float64(time.Second))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// deck returns n booleans of which round(share·n) are true, in seeded
// random order: a fixed composition, so every run sends the same mix.
func deck(rng *rand.Rand, n int, share float64) []bool {
	d := make([]bool, n)
	for i := 0; i < int(math.Round(share*float64(n))) && i < n; i++ {
		d[i] = true
	}
	rng.Shuffle(n, func(a, b int) { d[a], d[b] = d[b], d[a] })
	return d
}

// classifyCalls builds one classify request per arrival: 1..maxSeeds
// seeds drawn from one class, a fixed tier mix, and fixed ICA and
// full-score shares.
func classifyCalls(rng *rand.Rand, g *hin.Graph, due []time.Duration, lane int) []*call {
	members := make([][]int, g.Q())
	for i := 0; i < g.N(); i++ {
		if g.Labeled(i) {
			c := g.PrimaryLabel(i)
			members[c] = append(members[c], i)
		}
	}
	var classes []int
	for c, m := range members {
		if len(m) > 0 {
			classes = append(classes, c)
		}
	}
	n := len(due)
	tiers := make([]string, n)
	nAcc := int(math.Round(shareAccelerated * float64(n)))
	nFast := int(math.Round(shareFast * float64(n)))
	for i := range tiers {
		switch {
		case i < nAcc:
			tiers[i] = "accelerated"
		case i < nAcc+nFast:
			tiers[i] = "fast"
		default:
			tiers[i] = "exact"
		}
	}
	rng.Shuffle(n, func(a, b int) { tiers[a], tiers[b] = tiers[b], tiers[a] })
	ica := deck(rng, n, shareICA)
	scores := deck(rng, n, shareScores)
	out := make([]*call, n)
	for i, d := range due {
		m := members[classes[rng.Intn(len(classes))]]
		k := 1 + rng.Intn(maxSeeds)
		if k > len(m) {
			k = len(m)
		}
		perm := rng.Perm(len(m))[:k]
		seeds := make([]int, k)
		for j, p := range perm {
			seeds[j] = m[p]
		}
		out[i] = &call{kind: kindClassify, due: d, lane: lane, quality: tiers[i],
			seeds: seeds, ica: ica[i], scores: scores[i]}
	}
	return out
}

// setupClassify is the first request of a set-up: one seed, exact tier.
func (in *inputs) setupClassify() *call {
	seed := 0
	for i := 0; i < in.graph.N(); i++ {
		if in.graph.Labeled(i) {
			seed = i
			break
		}
	}
	body, _ := json.Marshal(serve.ClassifyRequest{Model: mainModel, Seeds: []int{seed}, Quality: "exact"})
	return &call{id: -1, kind: kindClassify, lane: -1, quality: "exact", seeds: []int{seed}, body: body}
}

// encodeBodies renders every call's request body.
func encodeBodies(w workload, in *inputs) error {
	all := append(append(append([]*call(nil), in.setup...), in.warm...), in.measured...)
	for _, c := range all {
		var v any
		switch c.kind {
		case kindClassify:
			req := serve.ClassifyRequest{Model: mainModel, Seeds: c.seeds, ICA: c.ica,
				Scores: c.scores, Quality: c.quality}
			if c.scores {
				req.TopNodes = verifyTop
			}
			v = req
		case kindIngest:
			v = serve.IngestRequest{Model: w.ingestModel(), Deltas: c.deltas}
		}
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("encode request: %w", err)
		}
		c.body = b
	}
	return nil
}

// pair is one edge of a relation, normalised (lo, hi) when undirected.
type pair struct{ a, b int }

// edgeSet tracks one relation's live edges so generated deltas stay
// valid: updates and removals only ever target present edges.
type edgeSet struct {
	directed bool
	pairs    []pair
	at       map[pair]int
}

func (s *edgeSet) norm(a, b int) pair {
	if !s.directed && a > b {
		a, b = b, a
	}
	return pair{a, b}
}

func (s *edgeSet) add(p pair) {
	if _, ok := s.at[p]; !ok {
		s.at[p] = len(s.pairs)
		s.pairs = append(s.pairs, p)
	}
}

func (s *edgeSet) remove(p pair) {
	i, ok := s.at[p]
	if !ok {
		return
	}
	last := s.pairs[len(s.pairs)-1]
	s.pairs[i] = last
	s.at[last] = i
	s.pairs = s.pairs[:len(s.pairs)-1]
	delete(s.at, p)
}

// deltaGen generates valid ingest batches against an evolving graph.
type deltaGen struct {
	n    int
	rels []*edgeSet
	last *call // most recent original batch, the target of resends
	seq  int   // originals generated so far
}

func newDeltaGen(g *hin.Graph) *deltaGen {
	dg := &deltaGen{n: g.N()}
	for _, r := range g.Relations {
		s := &edgeSet{directed: r.Directed, at: map[pair]int{}}
		for _, e := range r.Edges {
			s.add(s.norm(e.From, e.To))
		}
		dg.rels = append(dg.rels, s)
	}
	return dg
}

// batch returns the next ingest call: a resend of the previous original
// batch (same key, same deltas) when dup is set, otherwise a fresh batch
// of deltasPerBatch add/update/remove deltas valid in order.
func (dg *deltaGen) batch(rng *rand.Rand, lane int, dup bool) *call {
	if dup && dg.last != nil {
		o := dg.last
		return &call{kind: kindIngest, lane: lane, key: o.key, batch: o.batch, dup: true, deltas: o.deltas}
	}
	c := &call{kind: kindIngest, lane: lane, key: fmt.Sprintf("b%06d", dg.seq), batch: dg.seq}
	dg.seq++
	for len(c.deltas) < deltasPerBatch {
		k := rng.Intn(len(dg.rels))
		s := dg.rels[k]
		w := 0.5 + float64(rng.Intn(16))/8
		switch r := rng.Float64(); {
		case r < 0.5 || len(s.pairs) == 0:
			a, b := rng.Intn(dg.n), rng.Intn(dg.n)
			if a == b {
				continue
			}
			s.add(s.norm(a, b))
			c.deltas = append(c.deltas, stream.Delta{Op: stream.OpAdd, From: a, To: b, Relation: k, Weight: w})
		case r < 0.8:
			p := s.pairs[rng.Intn(len(s.pairs))]
			c.deltas = append(c.deltas, stream.Delta{Op: stream.OpUpdate, From: p.a, To: p.b, Relation: k, Weight: w})
		default:
			p := s.pairs[rng.Intn(len(s.pairs))]
			s.remove(p)
			c.deltas = append(c.deltas, stream.Delta{Op: stream.OpRemove, From: p.a, To: p.b, Relation: k})
		}
	}
	dg.last = c
	return c
}
