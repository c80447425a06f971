package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Per-request deadlines: a request that has not completed by then is
// abandoned and counted as failed.
const (
	classifyDeadline = 10 * time.Second
	ingestDeadline   = 30 * time.Second
)

func (c *call) deadline() time.Duration {
	if c.kind == kindIngest {
		return ingestDeadline
	}
	return classifyDeadline
}

func (c *call) path() string {
	if c.kind == kindIngest {
		return "/v1/ingest"
	}
	return "/v1/classify"
}

// ok reports a completed 2xx answer.
func (c *call) ok() bool { return c.err == nil && c.status >= 200 && c.status < 300 }

// newLaneClient is the HTTP client of one lane: a single connection,
// no proxy, no compression. The client never retries on its own.
func newLaneClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// sendCall performs one request and records its outcome on c. The
// request carries no GetBody, so net/http cannot transparently replay
// it on a broken connection: every attempt is the benchmark's own.
func sendCall(ctx context.Context, cl *http.Client, base string, c *call) {
	ctx, cancel := context.WithTimeout(ctx, c.deadline())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+c.path(), bytes.NewReader(c.body))
	if err != nil {
		c.err = err
		return
	}
	req.GetBody = nil
	req.Header.Set("Content-Type", "application/json")
	if c.kind == kindIngest {
		req.Header.Set("Idempotency-Key", c.key)
	}
	c.send = time.Now()
	defer func() { c.done = time.Now() }()
	resp, err := cl.Do(req)
	if err != nil {
		c.err = err
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.err = fmt.Errorf("read body: %w", err)
		return
	}
	c.status, c.resp = resp.StatusCode, body
	if resp.StatusCode == http.StatusServiceUnavailable {
		var e struct {
			Reason string `json:"reason"`
		}
		if json.Unmarshal(body, &e) == nil {
			c.reason = e.Reason
		}
	}
}

// dispatcher hands released calls to lanes: each lane takes the
// earliest-due call among those pinned to it and those any lane may
// take.
type dispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]*call // one per lane, then the shared queue
	closed bool
}

func newDispatcher(lanes int) *dispatcher {
	d := &dispatcher{queues: make([][]*call, lanes+1)}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *dispatcher) release(c *call) {
	d.mu.Lock()
	q := len(d.queues) - 1
	if c.lane >= 0 {
		q = c.lane
	}
	d.queues[q] = append(d.queues[q], c)
	d.mu.Unlock()
	d.cond.Broadcast()
}

func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
}

// take blocks until a call is available to lane, or returns nil once the
// dispatcher is closed and drained.
func (d *dispatcher) take(lane int) *call {
	d.mu.Lock()
	defer d.mu.Unlock()
	shared := len(d.queues) - 1
	for {
		best := -1
		for _, q := range []int{lane, shared} {
			if len(d.queues[q]) > 0 && (best < 0 || d.queues[q][0].due < d.queues[best][0].due) {
				best = q
			}
		}
		if best >= 0 {
			c := d.queues[best][0]
			d.queues[best] = d.queues[best][1:]
			return c
		}
		if d.closed {
			return nil
		}
		d.cond.Wait()
	}
}

// runPhase drives one open-loop phase: calls are released at start+due
// by a generator that does no I/O, and lanes (one connection and one
// goroutine each) send them in due order as soon as they are free. It
// returns the phase start once every call has completed or failed.
func runPhase(ctx context.Context, base string, clients []*http.Client, calls []*call) time.Time {
	d := newDispatcher(len(clients))
	var wg sync.WaitGroup
	for l, cl := range clients {
		wg.Add(1)
		go func(l int, cl *http.Client) {
			defer wg.Done()
			for c := d.take(l); c != nil; c = d.take(l) {
				sendCall(ctx, cl, base, c)
			}
		}(l, cl)
	}
	start := time.Now()
	// A stopped timer with an empty channel: every Reset below follows a
	// receive, so no stale tick can fire early.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
release:
	for _, c := range calls {
		if wait := time.Until(start.Add(c.due)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				// Calls never released stay unsent and count as failed.
				break release
			case <-timer.C:
			}
		}
		c.release = time.Now()
		d.release(c)
	}
	d.close()
	wg.Wait()
	return start
}
