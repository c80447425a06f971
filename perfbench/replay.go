package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tmark/internal/artifact"
	"tmark/internal/hin"
	"tmark/internal/obs"
	"tmark/internal/serve"
	"tmark/internal/stream"
	"tmark/internal/tmark"
	"tmark/internal/wal"
)

// Replay caps keep the traced run's in-process phase within a few
// seconds on the workload sizes.
const (
	maxClassifyReplay = 200 // requests replayed through decode/solve/encode
	maxStatsRuns      = 24  // stats-carrying solves for the kernel split
)

// classifyLayers is the traced classify replay's per-layer record.
type classifyLayers struct {
	decodeUS, encodeUS []float64
	// The kernel split, one entry per stats-carrying solve.
	wall, o, r, w, reseed []float64
	// statsSource names the solver path the split came from.
	statsSource string
}

// replayClassify replays measured classify requests in-process through
// the public entry points of each layer the server runs: the request
// decoder, one SolveColumns per request with WithStats, and the
// response encoder. SolveColumns leaves RunStats empty when the column
// path does not report kernel times; the split then comes from
// RunContext class runs at each request's tier on the same model, and
// statsSource says so.
func replayClassify(ctx context.Context, t *tracer, m *tmark.Model, hash string, calls []*call) (*classifyLayers, error) {
	out := &classifyLayers{statsSource: "SolveColumns"}
	var replayed []*call
	for _, c := range calls {
		if c.kind != kindClassify {
			continue
		}
		if len(replayed) == maxClassifyReplay {
			break
		}
		replayed = append(replayed, c)
		root := t.begin("replay.classify", 0, c.id)
		var req *serve.ClassifyRequest
		var err error
		d := t.timed("serve.decode", root, c.id, func() {
			req, err = serve.DecodeClassifyRequest(bytes.NewReader(c.body))
		})
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", c.id, err)
		}
		out.decodeUS = append(out.decodeUS, us(d))
		quality, err := tmark.ParseQuality(req.Quality)
		if err != nil {
			return nil, err
		}
		var st tmark.RunStats
		var res []tmark.ColumnResult
		t.timed("tmark.solve_columns", root, c.id, func() {
			res, err = m.SolveColumns(ctx, []tmark.ColumnQuery{{Seeds: req.Seeds, ICA: req.ICA, Quality: quality}},
				tmark.WithStats(&st))
		})
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", c.id, err)
		}
		if st.Wall > 0 {
			out.addSplit(&st)
		}
		resp := responseFor(m.Graph(), hash, req, res[0])
		d = t.timed("serve.encode", root, c.id, func() { err = json.NewEncoder(io.Discard).Encode(resp) })
		if err != nil {
			return nil, err
		}
		out.encodeUS = append(out.encodeUS, us(d))
		t.end(root)
	}
	if len(out.wall) > 0 || len(replayed) == 0 {
		return out, nil
	}
	out.statsSource = "RunContext"
	step := max(1, len(replayed)/maxStatsRuns)
	for i := 0; i < len(replayed) && len(out.wall) < maxStatsRuns; i += step {
		c := replayed[i]
		var opts []tmark.RunOption
		switch c.quality {
		case "accelerated":
			opts = append(opts, tmark.WithAcceleration(true))
		case "fast":
			opts = append(opts, tmark.WithApproximate(true))
		}
		var st tmark.RunStats
		t.timed("tmark.run_stats", 0, c.id, func() { m.RunContext(ctx, append(opts, tmark.WithStats(&st))...) })
		out.addSplit(&st)
	}
	return out, nil
}

func (l *classifyLayers) addSplit(st *tmark.RunStats) {
	l.wall = append(l.wall, ms(st.Wall))
	l.o = append(l.o, ms(st.KernelTime(obs.KernelO)))
	l.r = append(l.r, ms(st.KernelTime(obs.KernelR)))
	l.w = append(l.w, ms(st.KernelTime(obs.KernelW)))
	l.reseed = append(l.reseed, ms(st.KernelTime(obs.KernelReseed)))
}

// responseFor assembles the response the server would send for res, so
// the encoder is timed on the same shape of value.
func responseFor(g *hin.Graph, hash string, req *serve.ClassifyRequest, res tmark.ColumnResult) *serve.ClassifyResponse {
	resp := &serve.ClassifyResponse{Dataset: mainModel, Model: mainModel, ModelHash: hash,
		Seeds: res.Seeds, Quality: req.Quality, Iterations: res.Iterations, Converged: res.Converged, Coalesced: 1}
	if len(res.Trace) > 0 {
		resp.Residual = res.Trace[len(res.Trace)-1]
	}
	top := req.TopNodes
	if req.Scores {
		resp.Scores = res.X
	} else if top == 0 {
		top = serve.DefaultTopNodes
	}
	for _, i := range topOrder(res.X, top) {
		resp.TopNodes = append(resp.TopNodes, serve.NodeScore{Node: i, Name: g.Nodes[i].Name, Score: res.X[i]})
	}
	for _, k := range topOrder(res.Z, len(res.Z)) {
		resp.Links = append(resp.Links, serve.LinkScore{Relation: k, Name: g.Relations[k].Name, Score: res.Z[k]})
	}
	return resp
}

// ingestLayers is the traced ingest replay's per-layer record, one entry
// per replayed batch that had a previous solve to warm-start from.
type ingestLayers struct {
	apply, wal, encode, put, warm, activate []float64
	warmIters, touched                      []float64
}

// replayIngest replays the acknowledged batches, in order, through an
// in-process stream.Engine built on the same JSON-loaded graph and
// config, and checks each sealed hash against the server's. Sampled
// classify answers are checked against the version that answered them
// as that version appears; any left over name a version the replay
// never produced.
//
// durable mirrors a server started with -model-dir and -wal-dir: the
// engine logs and seals into dir. With a tracer, each batch is also
// timed layer by layer on the same inputs: the write-ahead append, the
// artifact encoding plus hash, the registry Put, the warm re-solve from
// the previous version's result, and (durable only) opening and
// activating the sealed blob.
func replayIngest(ctx context.Context, ck *checker, t *tracer, name string, g *hin.Graph, cfg tmark.Config,
	fresh []ingestAck, sampled map[string][]classified, durable bool, dir string) (*ingestLayers, error) {
	var reg, sideReg *artifact.Registry
	var opts []stream.EngineOption
	var sideLog *wal.Log
	if durable {
		var err error
		if reg, err = artifact.OpenRegistry(filepath.Join(dir, "models")); err != nil {
			return nil, err
		}
		log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
		if err != nil {
			return nil, err
		}
		defer log.Close()
		opts = append(opts, stream.WithWAL(log))
		if t != nil {
			if sideReg, err = artifact.OpenRegistry(filepath.Join(dir, "side-models")); err != nil {
				return nil, err
			}
			if sideLog, err = wal.Open(filepath.Join(dir, "side-wal"), wal.Options{}); err != nil {
				return nil, err
			}
			defer sideLog.Close()
		}
	}
	eng, err := stream.NewEngine(name, g, cfg, reg, opts...)
	if err != nil {
		return nil, fmt.Errorf("replay engine: %w", err)
	}
	checkVersion := func(v *stream.Version) {
		h := "sha256:" + v.Hash
		for _, cr := range sampled[h] {
			checkSampled(ctx, ck, v.Model, cr)
		}
		delete(sampled, h)
	}
	checkVersion(eng.Current())
	out := &ingestLayers{}
	for _, a := range fresh {
		prevRes := eng.Current().Result()
		var res *stream.ApplyResult
		root := t.begin("replay.ingest", 0, a.c.id)
		applyD := t.timed("stream.apply", root, a.c.id, func() { res, err = eng.ApplyKeyed(ctx, a.c.key, a.c.deltas) })
		if err != nil {
			return nil, fmt.Errorf("replay ingest %s: %w", a.c.key, err)
		}
		checkReplayed(ck, a, res)
		v := eng.Current()
		checkVersion(v)
		if t == nil || prevRes == nil {
			t.end(root)
			continue
		}
		out.apply = append(out.apply, ms(applyD))
		out.warmIters = append(out.warmIters, float64(res.Iterations))
		out.touched = append(out.touched, float64(res.TouchedColumns))
		var walD, putD, actD time.Duration
		if sideLog != nil {
			rec := wal.Record{Seq: uint64(v.Seq), Key: a.c.key, Deltas: walDeltas(a.c.deltas)}
			walD = t.timed("wal.append", root, a.c.id, func() { err = sideLog.Append(rec) })
			if err != nil {
				return nil, err
			}
		}
		var data []byte
		var hash string
		encD := t.timed("artifact.encode", root, a.c.id, func() {
			if data, err = artifact.EncodeModel(g, cfg, v.Model.Substrate()); err == nil {
				hash = artifact.Hash(data)
			}
		})
		if err != nil {
			return nil, err
		}
		if sideReg != nil {
			putD = t.timed("artifact.put", root, a.c.id, func() { _, err = sideReg.Put(data) })
			if err != nil {
				return nil, err
			}
		}
		warmD := t.timed("tmark.warm_solve", root, a.c.id, func() {
			v.Model.RunWarmContext(ctx, prevRes, tmark.WithEquilibriumRestart(true))
		})
		if sideReg != nil {
			path := sideReg.BlobPath(hash)
			actD = t.timed("artifact.activate", root, a.c.id, func() {
				var art *artifact.Artifact
				if art, err = artifact.Open(path); err == nil {
					_, err = art.Activate(cfg)
					art.Close()
				}
			})
			if err != nil {
				return nil, fmt.Errorf("activate sealed version: %w", err)
			}
			// Only this batch's blob is needed; dropping it keeps the
			// replay's disk use to the engine's own registry.
			if err := os.Remove(path); err != nil {
				return nil, err
			}
		}
		out.wal = append(out.wal, ms(walD))
		out.encode = append(out.encode, ms(encD))
		out.put = append(out.put, ms(putD))
		out.warm = append(out.warm, ms(warmD))
		out.activate = append(out.activate, ms(actD))
		t.end(root)
	}
	for h, crs := range sampled {
		ck.failf("%d sampled answers came from version %s, which the replay never produced", len(crs), h)
	}
	return out, nil
}

// walDeltas converts wire deltas to the log's record form.
func walDeltas(ds []stream.Delta) []wal.Delta {
	out := make([]wal.Delta, len(ds))
	for i, d := range ds {
		op := wal.OpAdd
		switch d.Op {
		case stream.OpUpdate:
			op = wal.OpUpdate
		case stream.OpRemove:
			op = wal.OpRemove
		}
		out[i] = wal.Delta{Op: op, From: int32(d.From), To: int32(d.To), Relation: int32(d.Relation), Weight: d.Weight}
	}
	return out
}
