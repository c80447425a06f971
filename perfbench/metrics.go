package main

import (
	"bufio"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// latency is a call's time from due to completion; a call that failed
// or was refused counts at its deadline, so shedding never looks fast.
func latency(start time.Time, c *call) float64 {
	if !c.ok() {
		return ms(c.deadline())
	}
	return ms(c.done.Sub(start.Add(c.due)))
}

// slotKey names one arrival slot of the measured window.
type slotKey struct {
	kind callKind
	slot int
}

// slotBest is each arrival slot's best latency over the passes of the
// measured window, split into classify and ingest slots. Host steal on
// a shared machine comes in episodes that stretch the latency of most
// requests inside them; a slot is only stretched if every one of its
// passes was, so the latency percentiles are taken over these bests. A
// failed send counts at its deadline, so a slot all of whose sends
// failed still shows.
func slotBest(start time.Time, calls []*call) (classify, ingest []float64) {
	best := map[slotKey]float64{}
	var order []slotKey
	for _, c := range calls {
		k := slotKey{c.kind, c.slot}
		l := latency(start, c)
		if b, ok := best[k]; !ok {
			order = append(order, k)
			best[k] = l
		} else if l < b {
			best[k] = l
		}
	}
	for _, k := range order {
		if k.kind == kindClassify {
			classify = append(classify, best[k])
		} else {
			ingest = append(ingest, best[k])
		}
	}
	return classify, ingest
}

// measure computes the end-to-end metrics of the measured window.
func (res *result) measure(w workload, in *inputs, start time.Time, window time.Duration, setups []float64,
	rssMB float64, busy time.Duration) {
	var clat, ilat []float64
	good, okAll := 0, 0
	end := start.Add(window)
	for _, c := range in.measured {
		l := latency(start, c)
		if c.ok() {
			okAll++
			if c.done.After(end) {
				end = c.done
			}
		}
		switch c.kind {
		case kindClassify:
			clat = append(clat, l)
			if c.ok() && l <= ms(w.limit) {
				good++
			}
		case kindIngest:
			ilat = append(ilat, l)
		}
	}
	cbest, ibest := slotBest(start, in.measured)
	res.attempted = len(in.measured)
	res.failed = res.attempted - okAll
	elapsed := end.Sub(start).Seconds()
	sloMet := float64(good) / float64(len(clat))
	success := float64(okAll) / float64(res.attempted)
	res.endToEnd = []metric{
		{"setup_s", median(setups), "s"},
		{"classify_p50_ms", percentile(cbest, 50), "ms"},
		{"classify_goodput_rps", float64(good) / elapsed, "1/s"},
		{"ingest_p50_ms", percentile(ibest, 50), "ms"},
		{"server_cpu_ms_per_req", ms(busy) / float64(max(okAll, 1)), "ms"},
		{"slo_met_ratio", sloMet, "ratio"},
		{"success_ratio", success, "ratio"},
		{"peak_rss_mb", rssMB, "MB"},
	}
	// The tails, and the medians over every send rather than each slot's
	// best, are reported but not gated: host steal moves them by more than
	// any bound a run-to-run comparison can hold (see README.md).
	res.tails = []metric{
		{"classify_p50_every_send_ms", percentile(clat, 50), "ms"},
		{"ingest_p50_every_send_ms", percentile(ilat, 50), "ms"},
		{"classify_p95_ms", percentile(clat, 95), "ms"},
		{"classify_p99_ms", percentile(clat, 99), "ms"},
		{"ingest_p95_ms", percentile(ilat, 95), "ms"},
	}
	res.notes = append(res.notes,
		fmt.Sprintf("slo_miss_ratio=%.6f error_ratio=%.6f classify_limit_ms=%g", 1-sloMet, 1-success, ms(w.limit)),
		fmt.Sprintf("classify samples=%d (p95 has %d beyond, p99 %d), ingest samples=%d (p95 has %d beyond), window=%.3fs",
			len(clat), beyond(len(clat), 95), beyond(len(clat), 99), len(ilat), beyond(len(ilat), 95), elapsed),
		fmt.Sprintf("p50 metrics over the best of %d passes: %d classify slots, %d ingest slots", passes, len(cbest), len(ibest)),
		fmt.Sprintf("setup_s samples=%v", setups),
		fmt.Sprintf("refused by reason: %v", refusals(in.measured)),
		"classify p50 by tier over every send: "+tierMedians(start, in.measured))
}

// tierMedians formats the classify latency median of each quality tier.
func tierMedians(start time.Time, calls []*call) string {
	by := map[string][]float64{}
	for _, c := range calls {
		if c.kind == kindClassify {
			by[c.quality] = append(by[c.quality], latency(start, c))
		}
	}
	var parts []string
	for _, q := range []string{"exact", "accelerated", "fast"} {
		parts = append(parts, fmt.Sprintf("%s=%.3fms (n=%d)", q, median(by[q]), len(by[q])))
	}
	return strings.Join(parts, " ")
}

// refusals counts the measured window's 503s by the reason in the body.
func refusals(calls []*call) map[string]int {
	out := map[string]int{}
	for _, c := range calls {
		if c.status == 503 {
			out[c.reason]++
		}
	}
	return out
}

// layers computes the per-layer metrics of a traced run.
func (res *result) layers(in *inputs, start time.Time, d map[string]float64, rep *verifyReport, sealMB float64) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var exchange, lag, wait []float64
	sent := 0
	for _, c := range in.measured {
		due := start.Add(c.due)
		lag = append(lag, ms(c.release.Sub(due)))
		if c.send.IsZero() {
			continue
		}
		sent++
		wait = append(wait, ms(c.send.Sub(due)))
		if c.kind == kindClassify && c.ok() {
			exchange = append(exchange, ms(c.done.Sub(c.send)))
		}
	}
	batchMS := 1000 * ratio(d["tmarkd_batch_solve_seconds_total"], d["tmarkd_batch_solve_calls_total"])
	cl := rep.classify
	if cl == nil {
		cl = &classifyLayers{}
	}
	ing := rep.ingest
	if ing == nil {
		ing = &ingestLayers{}
	}
	unattributed := make([]float64, len(cl.wall))
	for i := range cl.wall {
		unattributed[i] = cl.wall[i] - cl.o[i] - cl.r[i] - cl.w[i] - cl.reseed[i]
	}
	applyP50 := zeroNaN(percentile(ing.apply, 50))
	parts := []float64{zeroNaN(percentile(ing.wal, 50)), zeroNaN(percentile(ing.encode, 50)),
		zeroNaN(percentile(ing.put, 50)), zeroNaN(percentile(ing.warm, 50))}
	other := applyP50
	for _, p := range parts {
		other -= p
	}
	lookups := d["tmarkd_cache_hits_total"] + d["tmarkd_cache_misses_total"]
	res.perLayer = []metric{
		{"serve.batch_solve_ms_mean", batchMS, "ms"},
		{"serve.nonsolve_ms_mean", zeroNaN(mean(exchange)) - batchMS, "ms"},
		{"serve.coalesce_width_mean", ratio(d["tmarkd_batched_requests_total"], d["tmarkd_batches_total"]), "count"},
		{"serve.cache_miss_ratio", ratio(d["tmarkd_cache_misses_total"], lookups), "ratio"},
		{"serve.rejected", d["tmarkd_rejected_total"], "count"},
		{"serve.decode_us_p50", zeroNaN(percentile(cl.decodeUS, 50)), "us"},
		{"serve.encode_us_p50", zeroNaN(percentile(cl.encodeUS, 50)), "us"},
		{"tmark.iters_mean", zeroNaN(mean(rep.iterations)), "count"},
		{"tmark.solve_wall_ms", zeroNaN(mean(cl.wall)), "ms"},
		{"tmark.o_contract_ms", zeroNaN(mean(cl.o)), "ms"},
		{"tmark.r_contract_ms", zeroNaN(mean(cl.r)), "ms"},
		{"tmark.w_matvec_ms", zeroNaN(mean(cl.w)), "ms"},
		{"tmark.ica_reseed_ms", zeroNaN(mean(cl.reseed)), "ms"},
		{"tmark.unattributed_ms", zeroNaN(mean(unattributed)), "ms"},
		{"tmark.accel_accept_ratio", ratio(d["tmark_accel_accepted_total"], d["tmark_accel_proposed_total"]), "ratio"},
		{"tmark.build_s", rep.buildS, "s"},
		{"tensor.nnz", float64(rep.nnz), "count"},
		{"tensor.o_bytes_per_iter", float64(20*rep.nnz + 8*rep.cols), "bytes"},
		{"stream.apply_ms_p50", applyP50, "ms"},
		{"wal.append_ms_p50", parts[0], "ms"},
		{"artifact.encode_ms_p50", parts[1], "ms"},
		{"artifact.put_ms_p50", parts[2], "ms"},
		{"tmark.warm_solve_ms_p50", parts[3], "ms"},
		{"stream.other_ms_p50", other, "ms"},
		{"stream.warm_iters_mean", zeroNaN(mean(ing.warmIters)), "count"},
		{"stream.touched_columns_mean", zeroNaN(mean(ing.touched)), "count"},
		{"artifact.activate_ms_p50", zeroNaN(percentile(ing.activate, 50)), "ms"},
		{"artifact.seal_mb", sealMB, "MB"},
		{"load.sent", float64(sent), "count"},
		{"load.lag_p99_ms", zeroNaN(percentile(lag, 99)), "ms"},
		{"load.wait_ms_mean", zeroNaN(mean(wait)), "ms"},
	}
	res.notes = append(res.notes,
		fmt.Sprintf("tmark split: %d solves via %s; tensor figures are computed from sizes (20 B per O entry + 8 B per column)",
			len(cl.wall), cl.statsSource),
		fmt.Sprintf("ingest split: %d replayed batches", len(ing.apply)))
}

// zeroNaN maps the NaN of an empty sample to 0, for layers a workload
// does not exercise.
func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// fingerprint identifies the host and the program under test.
func fingerprint(tmarkd string) map[string]string {
	fp := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	if bi, err := buildinfo.ReadFile(tmarkd); err == nil {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			fp["commit"] = rev + dirty
		}
	}
	if data, err := os.ReadFile(tmarkd); err == nil {
		sum := sha256.Sum256(data)
		fp["tmarkd_sha256"] = hex.EncodeToString(sum[:8])
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// print writes the human-readable report and, last, the JSON line.
func (res *result) print(w io.Writer, o options) {
	fmt.Fprintf(w, "workload %s seed %d window %s trace %v\n", o.wl.name, o.seed, o.window, o.trace)
	fmt.Fprintf(w, "host %v\n", res.host)
	for _, m := range res.endToEnd {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range res.tails {
		fmt.Fprintf(w, "  %-30s %14.4f %s (not gated)\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range res.perLayer {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	if o.trace {
		if base, err := loadResult(o, false); err == nil {
			fmt.Fprintf(w, "tracing overhead (traced − untraced, same seed):\n")
			for _, m := range res.endToEnd {
				if v, ok := base[m.Name]; ok {
					fmt.Fprintf(w, "  %-30s %+14.4f %s\n", m.Name, m.Value-v, m.Unit)
				}
			}
		}
		printSelfTimes(w, res.spanTable)
	}
	fmt.Fprintf(w, "checks: %s\n", res.check.summary())
	for _, f := range res.check.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	shown := res.endToEnd
	if o.trace {
		shown = res.perLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.check.ok(), res.attempted, res.failed, map[string]map[string]any{}}
	for _, m := range shown {
		out.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", line)
}

// resultPath is where a run's full record is kept, so a traced run can
// report its overhead against the untraced run of the same seed.
func resultPath(o options, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(o.work, "results", fmt.Sprintf("%s-seed%d-trace%d.json", o.wl.name, o.seed, t))
}

func (res *result) save(o options) error {
	rec := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Trace    bool              `json:"trace"`
		Host     map[string]string `json:"host"`
		Correct  bool              `json:"correct"`
		EndToEnd []metric          `json:"end_to_end"`
		Tails    []metric          `json:"tails"`
		PerLayer []metric          `json:"per_layer,omitempty"`
		Notes    []string          `json:"notes"`
	}{o.wl.name, o.seed, o.trace, res.host, res.check.ok(), res.endToEnd, res.tails, res.perLayer, res.notes}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := resultPath(o, o.trace)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// loadResult reads the end-to-end metrics of an earlier run's record.
func loadResult(o options, traced bool) (map[string]float64, error) {
	data, err := os.ReadFile(resultPath(o, traced))
	if err != nil {
		return nil, err
	}
	var rec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range rec.EndToEnd {
		out[m.Name] = m.Value
	}
	return out, nil
}
