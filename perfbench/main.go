// Command perfbench is the repository's end-to-end benchmark: it drives
// a freshly built tmarkd over real HTTP with a seeded open-loop load,
// checks every answer it can against in-process solves, and prints the
// workload's metrics. See README.md in this directory.
//
// Usage (run.sh builds both binaries and passes -tmarkd and -work):
//
//	perfbench -tmarkd BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// runBudget bounds one invocation; the benchmark must exit well within
// three minutes.
const runBudget = 170 * time.Second

// setupReps is how many times an untraced run starts tmarkd to measure
// set-up; the last instance serves the load.
const setupReps = 5

type options struct {
	wl     workload
	seed   int64
	window time.Duration
	trace  bool
	tmarkd string
	work   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run")
		seed    = fs.Int64("seed", 1, "seed of the generated graph and request schedule")
		seconds = fs.Int("seconds", 25, "length of the measured window")
		trace   = fs.Int("trace", 0, "1 runs the traced per-layer variant")
		bin     = fs.String("tmarkd", "", "tmarkd binary to benchmark")
		work    = fs.String("work", ".bench_build", "directory for run files, spans and results")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err == nil && *bin == "" {
		err = errors.New("-tmarkd is required")
	}
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := options{wl: wl, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, tmarkd: *bin, work: *work}
	res, err := bench(ctx, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(stdout, o)
	if err := res.save(o); err != nil {
		fmt.Fprintf(stderr, "perfbench: save result: %v\n", err)
	}
	if !res.check.ok() {
		fmt.Fprintf(stderr, "perfbench: %d correctness failures\n", res.check.failed)
		return 1
	}
	return 0
}

// metric is one named, unit-carrying number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured and checked.
type result struct {
	check     *checker
	attempted int
	failed    int
	endToEnd  []metric
	tails     []metric // reported, not gated
	perLayer  []metric
	notes     []string // sample counts, sources and other context
	host      map[string]string
	spanTable []layerRow
}

func bench(ctx context.Context, o options, log io.Writer) (*result, error) {
	in, err := makeInputs(o.wl, o.seed, o.window)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	graphs := map[string]string{mainModel: filepath.Join(runDir, "main.json")}
	if err := os.WriteFile(graphs[mainModel], in.graphJSON, 0o644); err != nil {
		return nil, err
	}
	if in.probeJSON != nil {
		graphs[probeModel] = filepath.Join(runDir, "probe.json")
		if err := os.WriteFile(graphs[probeModel], in.probeJSON, 0o644); err != nil {
			return nil, err
		}
	}

	reps := setupReps
	if o.trace {
		reps = 1
	}
	var setups []float64
	var srv *server
	instDir := ""
	for i := 0; i < reps; i++ {
		instDir = filepath.Join(runDir, fmt.Sprintf("instance%d", i))
		s, d, err := setUp(ctx, o.tmarkd, serverArgs(o.wl, graphs, instDir), in)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, d.Seconds())
		hwm, _ := s.peakRSSMB()
		fmt.Fprintf(log, "perfbench: %s set-up %d: %.3fs, VmHWM %.1f MB\n", o.wl.name, i+1, d.Seconds(), hwm)
		if i < reps-1 {
			s.stop()
			if err := os.RemoveAll(instDir); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	defer srv.stop()

	clients := []*http.Client{newLaneClient(), newLaneClient()}
	defer func() {
		for _, cl := range clients {
			cl.CloseIdleConnections()
		}
	}()
	runPhase(ctx, srv.base, clients, in.warm)
	before, err := srv.scrape(ctx, clients[0])
	if err != nil {
		return nil, err
	}
	modelDir := filepath.Join(instDir, "models")
	sealedBefore, err := dirBytes(modelDir)
	if err != nil {
		return nil, err
	}
	cpu0 := readCPUTimes()
	busy0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	start := runPhase(ctx, srv.base, clients, in.measured)
	busy1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	steal := cpu0.stealShare(readCPUTimes())
	after, err := srv.scrape(ctx, clients[0])
	if err != nil {
		return nil, err
	}
	sealedAfter, err := dirBytes(modelDir)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := srv.dead(); err != nil {
		return nil, err
	}
	srv.stop()
	// The sealed versions of an ingest run take gigabytes; free them
	// before the in-process replay writes its own.
	if err := os.RemoveAll(instDir); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run budget exhausted during the load: %w", err)
	}

	res := &result{check: newChecker(), host: fingerprint(o.tmarkd)}
	res.measure(o.wl, in, start, o.window, setups, rss, busy1-busy0)
	res.notes = append(res.notes, fmt.Sprintf("host steal during the window: %.1f%% of CPU time", 100*steal))
	var t *tracer
	if o.trace {
		t = newTracer()
		traceCalls(t, start, in.measured)
	}
	rep, err := verify(ctx, o, in, graphs, runDir, res.check, t)
	if err != nil {
		return nil, err
	}
	if o.trace {
		d := delta(before, after)
		seals := 0
		for _, c := range in.measured {
			if c.kind == kindIngest && c.ok() && !c.dup {
				seals++
			}
		}
		sealMB := 0.0
		if seals > 0 {
			sealMB = float64(sealedAfter-sealedBefore) / float64(seals) / (1 << 20)
		}
		res.layers(in, start, d, rep, sealMB)
		res.spanTable = selfTimes(t.spans)
		spanDir := filepath.Join(o.work, "spans")
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.wl.name, o.seed))
		if err := t.writeFile(path); err != nil {
			return nil, err
		}
		res.notes = append(res.notes, "spans: "+path)
	}
	return res, nil
}

// setUp starts one tmarkd and drives it until it has answered its first
// classify request and completed the set-up ingests: the lazy model
// build and the ingest engine's construction happen there, so set-up
// time includes them and the measured window does not.
func setUp(ctx context.Context, bin string, args []string, in *inputs) (*server, time.Duration, error) {
	s, started, err := startServer(bin, args)
	if err != nil {
		return nil, 0, err
	}
	cl := newLaneClient()
	defer cl.CloseIdleConnections()
	first := in.setupClassify()
	if err := s.awaitFirst(ctx, cl, first); err != nil {
		s.stop()
		return nil, 0, err
	}
	for _, c := range in.setup {
		c.err, c.status, c.resp = nil, 0, nil
		sendCall(ctx, cl, s.base, c)
		if !c.ok() {
			s.stop()
			return nil, 0, fmt.Errorf("set-up ingest answered %d (%v): %s", c.status, c.err, c.resp)
		}
	}
	return s, time.Since(started), nil
}

// verifyReport carries what the in-process checks measured for the
// traced run.
type verifyReport struct {
	buildS     float64
	nnz, cols  int
	classify   *classifyLayers
	ingest     *ingestLayers
	iterations []float64
}

// verify runs the in-process correctness checks (and, with a tracer,
// the per-layer replays) on the graphs tmarkd loaded.
func verify(ctx context.Context, o options, in *inputs, graphs map[string]string, dir string,
	ck *checker, t *tracer) (*verifyReport, error) {
	cfg := benchConfig(o.wl.topK)
	rep := &verifyReport{}
	g, err := loadGraph(t, graphs[mainModel])
	if err != nil {
		return nil, err
	}
	answered := append(append([]*call(nil), in.warm...), in.measured...)
	cls := decodeClassify(ck, answered, g.M())
	for _, cr := range cls {
		if cr.c.id >= len(in.warm) {
			rep.iterations = append(rep.iterations, float64(cr.r.Iterations))
		}
	}
	sampled := sampledByHash(cls)
	ingests := append(append([]*call(nil), in.setup...), answered...)
	fresh, chainOK := ingestChain(ck, ingests)

	if !o.wl.ingestMain || t != nil {
		model, d, err := buildModel(t, g, cfg)
		if err != nil {
			return nil, err
		}
		rep.buildS = d.Seconds()
		raw := model.Substrate().O.Raw()
		rep.nnz, rep.cols = len(raw.P), len(raw.ColJ)
		hash, err := modelHash(g, cfg, model)
		if err != nil {
			return nil, err
		}
		if !o.wl.ingestMain {
			for _, cr := range cls {
				if cr.r.ModelHash != hash {
					ck.failf("request %d answered by %s, the loaded graph compiles to %s", cr.c.id, cr.r.ModelHash, hash)
				}
			}
			for _, cr := range sampled[hash] {
				checkSampled(ctx, ck, model, cr)
			}
			delete(sampled, hash)
		}
		if t != nil {
			if rep.classify, err = replayClassify(ctx, t, model, hash, in.measured); err != nil {
				return nil, err
			}
		}
	}
	if !chainOK {
		return rep, nil
	}
	ig, sampledIngest := g, sampled
	if !o.wl.ingestMain {
		if ig, err = loadGraph(t, graphs[probeModel]); err != nil {
			return nil, err
		}
		sampledIngest = nil
	}
	rep.ingest, err = replayIngest(ctx, ck, t, o.wl.ingestModel(), ig, cfg, fresh, sampledIngest,
		o.wl.ingestMain && t != nil, filepath.Join(dir, "replay"))
	return rep, err
}
