package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"tmark/internal/hin"
	"tmark/internal/serve"
	"tmark/internal/stream"
	"tmark/internal/tmark"
)

// tiny is a workload small enough for unit tests: n = 40.
var tiny = workload{name: "tiny", authorsPerArea: 10, classifyRate: 20, ingestRate: 10, limit: time.Second}

func TestInputsReproduceFromSeed(t *testing.T) {
	for _, w := range []workload{tiny, func() workload { w := tiny; w.ingestMain = true; return w }()} {
		a, err := makeInputs(w, 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.graphJSON, b.graphJSON) || !bytes.Equal(a.probeJSON, b.probeJSON) {
			t.Fatalf("ingestMain=%v: same seed produced different graph bytes", w.ingestMain)
		}
		if !reflect.DeepEqual(scheduleLines(a), scheduleLines(b)) {
			t.Fatalf("ingestMain=%v: same seed produced different schedules", w.ingestMain)
		}
		c, err := makeInputs(w, 8, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.graphJSON, c.graphJSON) || reflect.DeepEqual(scheduleLines(a), scheduleLines(c)) {
			t.Fatalf("ingestMain=%v: different seeds produced identical inputs", w.ingestMain)
		}
	}
}

// scheduleLines flattens every phase's calls into comparable lines.
func scheduleLines(in *inputs) []string {
	var out []string
	for _, phase := range [][]*call{in.setup, in.warm, in.measured} {
		for _, c := range phase {
			out = append(out, strings.Join([]string{c.due.String(), string(c.body), c.key,
				strings.Repeat("d", btoi(c.dup)), strings.Repeat("l", c.lane+1)}, "|"))
		}
	}
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestScheduleShape(t *testing.T) {
	in, err := makeInputs(tiny, 3, 12*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var classify, ingest, dups int
	tiers := map[string]int{}
	sends := map[slotKey][]*call{}
	for i, c := range in.measured {
		if i > 0 && c.due < in.measured[i-1].due {
			t.Fatalf("call %d due %v before its predecessor", i, c.due)
		}
		k := slotKey{c.kind, c.slot}
		sends[k] = append(sends[k], c)
		if c.due < 0 || c.due >= 12*time.Second {
			t.Fatalf("call %d due %v outside the window", i, c.due)
		}
		switch c.kind {
		case kindClassify:
			classify++
			tiers[c.quality]++
			if len(c.seeds) < 1 || len(c.seeds) > maxSeeds {
				t.Fatalf("call %d has %d seeds", i, len(c.seeds))
			}
			var req serve.ClassifyRequest
			if err := json.Unmarshal(c.body, &req); err != nil || req.Validate() != nil {
				t.Fatalf("call %d body %s does not validate: %v", i, c.body, err)
			}
		case kindIngest:
			ingest++
			if c.dup {
				dups++
			}
			if c.lane != 1 {
				t.Fatalf("ingest call %d on lane %d, want the ingest lane", i, c.lane)
			}
		}
	}
	// Three passes of a 4 s schedule at 20 classify and 10 ingest/s.
	if classify != 240 || ingest != 120 {
		t.Fatalf("got %d classify and %d ingest calls, want 240 and 120", classify, ingest)
	}
	if tiers["accelerated"] != 60 || tiers["fast"] != 60 || tiers["exact"] != 120 {
		t.Fatalf("tier mix %v, want 60/60/120", tiers)
	}
	if len(sends) != 120 {
		t.Fatalf("%d arrival slots, want 80 classify + 40 ingest", len(sends))
	}
	pass := 4 * time.Second
	for k, cs := range sends {
		if len(cs) != passes {
			t.Fatalf("slot %v sent %d times, want %d", k, len(cs), passes)
		}
		for p, c := range cs[1:] {
			if c.due-cs[0].due != time.Duration(p+1)*pass || c.dup != cs[0].dup {
				t.Fatalf("slot %v pass %d: due %v dup %v, first pass due %v dup %v", k, p+1, c.due, c.dup, cs[0].due, cs[0].dup)
			}
			if k.kind == kindClassify && !bytes.Equal(c.body, cs[0].body) {
				t.Fatalf("classify slot %d differs between passes", k.slot)
			}
			if k.kind == kindIngest && !c.dup && c.key == cs[0].key {
				t.Fatalf("ingest slot %d resends batch %s in a later pass", k.slot, c.key)
			}
		}
	}
	if dups == 0 {
		t.Fatal("no duplicate resends scheduled")
	}
}

// TestIngestBatchesApply proves the generated delta stream is valid in
// order and that every resend repeats its original exactly.
func TestIngestBatchesApply(t *testing.T) {
	w := tiny
	w.ingestMain = true
	in, err := makeInputs(w, 5, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hin.ReadJSON(bytes.NewReader(in.graphJSON))
	if err != nil {
		t.Fatal(err)
	}
	cfg := benchConfig(0)
	eng, err := stream.NewEngine(mainModel, g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	originals := map[int]*call{}
	all := append(append(append([]*call(nil), in.setup...), in.warm...), in.measured...)
	for _, c := range all {
		if c.kind != kindIngest {
			continue
		}
		if c.dup {
			o := originals[c.batch]
			if o == nil || o.key != c.key || !reflect.DeepEqual(o.deltas, c.deltas) {
				t.Fatalf("resend %s does not repeat an earlier original", c.key)
			}
			continue
		}
		if len(c.deltas) != deltasPerBatch {
			t.Fatalf("batch %s has %d deltas", c.key, len(c.deltas))
		}
		originals[c.batch] = c
		if _, err := eng.ApplyKeyed(context.Background(), c.key, c.deltas); err != nil {
			t.Fatalf("batch %s: %v", c.key, err)
		}
	}
	if len(originals) == 0 {
		t.Fatal("no ingest batches generated")
	}
}

func TestArrivalsAndDeck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := arrivals(rng, 12.5, 4)
	if len(a) != 50 {
		t.Fatalf("%d arrivals, want 50", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
	if len(arrivals(rng, 0, 10)) != 0 {
		t.Fatal("zero rate produced arrivals")
	}
	d := deck(rng, 40, 0.05)
	n := 0
	for _, v := range d {
		n += btoi(v)
	}
	if n != 2 {
		t.Fatalf("deck has %d of 40 set, want 2", n)
	}
}

func TestSlotBest(t *testing.T) {
	start := time.Now()
	mk := func(kind callKind, slot int, due, took time.Duration, status int) *call {
		return &call{kind: kind, slot: slot, due: due, status: status, done: start.Add(due + took)}
	}
	calls := []*call{
		mk(kindClassify, 0, 0, 30*time.Millisecond, 200),
		mk(kindClassify, 1, 0, 5*time.Millisecond, 503),
		mk(kindIngest, 0, 0, 7*time.Millisecond, 200),
		mk(kindClassify, 0, time.Second, 10*time.Millisecond, 200),
		mk(kindClassify, 1, time.Second, 50*time.Millisecond, 200),
		mk(kindIngest, 0, time.Second, 9*time.Millisecond, 200),
		mk(kindClassify, 2, time.Second, time.Millisecond, 503),
	}
	cl, in := slotBest(start, calls)
	// A refused send counts at its deadline, so it never beats a served one.
	want := []float64{10, 50, ms(classifyDeadline)}
	if !reflect.DeepEqual(cl, want) || !reflect.DeepEqual(in, []float64{7}) {
		t.Fatalf("slotBest = %v, %v; want %v, [7]", cl, in, want)
	}
}

func TestPercentile(t *testing.T) {
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(mean(nil)) || !math.IsNaN(median(nil)) {
		t.Fatal("empty inputs must give NaN")
	}
	if got := percentile([]float64{4}, 99); got != 4 {
		t.Fatalf("single sample p99 = %v", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending: percentile must not rely on order
	}
	cases := []struct{ p, want float64 }{{0, 1}, {-5, 1}, {50, 500}, {95, 950}, {99, 990}, {100, 1000}, {150, 1000}, {0.01, 1}}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Fatal("percentile reordered its input")
	}
	if !math.IsNaN(percentile(xs, math.NaN())) {
		t.Fatal("NaN percentile must give NaN")
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 99, 10}, {200, 95, 10}, {250, 95, 12}, {100, 99, 1}, {1, 50, 0}, {0, 95, 0}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("median wrong")
	}
}

func TestParseMetricsAndDelta(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(`# TYPE tmarkd_batches_total counter
tmarkd_batches_total 10

tmarkd_batch_solve_seconds_total 0.5
http_requests_total{code="200",path="/v1/classify"} 7 1700000000
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(`tmarkd_batches_total 25
tmarkd_batch_solve_seconds_total 1.25
http_requests_total{code="200",path="/v1/classify"} 9
tmarkd_rejected_total 3
`))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	want := map[string]float64{
		"tmarkd_batches_total":                                15,
		"tmarkd_batch_solve_seconds_total":                    0.75,
		`http_requests_total{code="200",path="/v1/classify"}`: 2,
		"tmarkd_rejected_total":                               3,
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("delta = %v, want %v", d, want)
	}
	for _, bad := range []string{"lonely_name\n", "name notanumber\n", "name 1 2 3\n"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) accepted malformed input", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 0, 1, at(0), at(100))
	tr.add("a", root, 1, at(10), at(40))
	tr.add("b", root, 1, at(30), at(50))  // overlaps a: union 10..50
	tr.add("c", root, 1, at(90), at(120)) // clipped to the parent at 100
	rows := map[string]layerRow{}
	for _, r := range selfTimes(tr.spans) {
		rows[r.name] = r
	}
	if got := rows["root"].self; got != 50*time.Millisecond {
		t.Fatalf("root self time %v, want 50ms", got)
	}
	if got := rows["a"].self; got != 30*time.Millisecond {
		t.Fatalf("leaf self time %v, want its duration", got)
	}
	var buf bytes.Buffer
	if err := tr.writeJSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Fatalf("%d span lines, want 4", lines)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 0); id != 0 {
		t.Fatal("nil tracer recorded a span")
	}
	nilTracer.end(0)
}

func TestRankingAndSimplex(t *testing.T) {
	if got := topOrder([]float64{0.1, 0.4, 0.4, 0.1}, 3); !reflect.DeepEqual(got, []int{1, 2, 0}) {
		t.Fatalf("topOrder = %v", got)
	}
	if !onSimplex([]float64{0.25, 0.75}) || onSimplex([]float64{0.5, 0.6}) ||
		onSimplex([]float64{1.5, -0.5}) || onSimplex([]float64{math.NaN(), 1}) {
		t.Fatal("onSimplex misclassified")
	}
}

func TestIngestChainFindsBreaks(t *testing.T) {
	ack := func(key string, batch int, dup bool, r serve.IngestResponse) *call {
		body, _ := json.Marshal(r)
		return &call{kind: kindIngest, key: key, batch: batch, dup: dup, status: 200, resp: body}
	}
	good := []*call{
		ack("k0", 0, false, serve.IngestResponse{Seq: 1, OldHash: "h0", NewHash: "h1"}),
		ack("k0", 0, true, serve.IngestResponse{Seq: 1, OldHash: "h0", NewHash: "h1", Duplicate: true}),
		ack("k1", 1, false, serve.IngestResponse{Seq: 2, OldHash: "h1", NewHash: "h2"}),
	}
	ck := newChecker()
	fresh, ok := ingestChain(ck, good)
	if !ok || !ck.ok() || len(fresh) != 2 || ck.passed["duplicate_resend"] != 1 {
		t.Fatalf("clean chain: ok=%v failures=%v fresh=%d", ok, ck.failures, len(fresh))
	}
	bad := []*call{
		ack("k0", 0, false, serve.IngestResponse{Seq: 1, OldHash: "h0", NewHash: "h1"}),
		ack("k0", 0, true, serve.IngestResponse{Seq: 2, OldHash: "h1", NewHash: "h2"}),  // re-applied
		ack("k1", 1, false, serve.IngestResponse{Seq: 3, OldHash: "h2", NewHash: "h3"}), // built on it
	}
	ck = newChecker()
	ingestChain(ck, bad)
	if ck.failed != 2 {
		t.Fatalf("broken chain: %d failures %v, want 2", ck.failed, ck.failures)
	}
	failedCall := []*call{{kind: kindIngest, key: "k0", status: 503}}
	if _, ok := ingestChain(newChecker(), failedCall); ok {
		t.Fatal("a failed ingest must make the chain unverifiable")
	}
}

func TestCheckSampledExact(t *testing.T) {
	in, err := makeInputs(tiny, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tmark.New(in.graph, benchConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	c := &call{id: 1, quality: "exact", seeds: []int{0, 1}}
	ref, err := m.SolveColumn(context.Background(), tmark.ColumnQuery{Seeds: c.seeds, Quality: tmark.QualityExact})
	if err != nil {
		t.Fatal(err)
	}
	resp := &serve.ClassifyResponse{Scores: append([]float64(nil), ref.X...), Iterations: ref.Iterations}
	ck := newChecker()
	checkSampled(context.Background(), ck, m, classified{c, resp})
	if !ck.ok() || ck.passed["exact_bitwise"] != 1 {
		t.Fatalf("identical answer rejected: %v", ck.failures)
	}
	resp.Scores[3] = math.Nextafter(resp.Scores[3], 1)
	checkSampled(context.Background(), ck, m, classified{c, resp})
	if ck.ok() {
		t.Fatal("a one-ulp difference passed the bitwise check")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "-tmarkd", "x"},
		{"--workload", "classify-dense"},
		{"--workload", "classify-dense", "-tmarkd", "x", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the code
// in step: the same workloads, and exactly the metric names and units a
// run prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type named struct{ Name, Unit, Why string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []named
	for _, w := range workloads {
		wls = append(wls, named{Name: w.name, Why: w.why})
	}
	if !reflect.DeepEqual(spec.Workloads, wls) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", spec.Workloads, wls)
	}
	start := time.Now()
	in := &inputs{measured: []*call{
		{kind: kindClassify, status: 200, release: start, send: start, done: start.Add(time.Millisecond)},
		{kind: kindIngest, status: 200, release: start, send: start, done: start.Add(time.Millisecond)},
	}}
	res := &result{}
	res.measure(tiny, in, start, time.Second, []float64{1}, 10, time.Second)
	res.layers(in, start, map[string]float64{}, &verifyReport{}, 0)
	for _, c := range []struct {
		kind string
		spec []named
		got  []metric
	}{{"end_to_end", spec.EndToEnd, res.endToEnd}, {"per_layer", spec.PerLayer, res.perLayer}} {
		var got []named
		for _, m := range c.got {
			got = append(got, named{Name: m.Name, Unit: m.Unit})
		}
		if !reflect.DeepEqual(c.spec, got) {
			t.Errorf("BENCHMARK.json %s %v, program prints %v", c.kind, c.spec, got)
		}
	}
}
