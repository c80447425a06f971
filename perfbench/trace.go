package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one traced interval. Spans of one request share its request
// id; a root span has parent 0. Times are nanoseconds since the tracer
// started.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Request int    `json:"request"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pass nil and pay no cost. It is used from
// one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records [start, end) under parent and returns the span's id.
func (t *tracer) add(name string, parent int64, req int, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// begin opens a span starting now; end closes it.
func (t *tracer) begin(name string, parent int64, req int) int64 {
	now := time.Now()
	return t.add(name, parent, req, now, now)
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// timed runs f inside a span and returns f's duration.
func (t *tracer) timed(name string, parent int64, req int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, parent, req, start, end)
	return end.Sub(start)
}

// writeJSONLines writes one span per line.
func (t *tracer) writeJSONLines(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeJSONLines(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates spans by name: a span's self time is its
// duration minus the part of it its children cover.
func selfTimes(spans []span) []layerRow {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.count++
		r.total += time.Duration(d)
		r.self += time.Duration(d - covered(s, children[s.ID]))
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].self != out[b].self {
			return out[a].self > out[b].self
		}
		return out[a].name < out[b].name
	})
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

func printSelfTimes(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-26s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %7d %12.3f %12.3f\n", r.name, r.count, ms(r.total), ms(r.self))
	}
}

// traceCalls records the client's view of each measured request: the
// whole request from its due time, the wait before a lane sent it, and
// the HTTP exchange.
func traceCalls(t *tracer, start time.Time, calls []*call) {
	for _, c := range calls {
		if c.send.IsZero() || c.done.IsZero() {
			continue
		}
		due := start.Add(c.due)
		root := t.add("load.request", 0, c.id, due, c.done)
		t.add("load.wait", root, c.id, due, c.send)
		t.add("http"+c.path(), root, c.id, c.send, c.done)
	}
}
