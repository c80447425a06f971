package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tmark/internal/tmark"
)

// The solver configuration tmarkd is started with, repeated verbatim in
// the in-process checks so both sides solve the same model. The worker
// count is pinned because results are bitwise reproducible only for a
// fixed worker count.
const (
	cfgAlpha   = 0.8
	cfgGamma   = 0.6
	cfgLambda  = 0.7
	cfgEpsilon = 1e-8
	cfgMaxIter = 100
	cfgWorkers = 2
)

func benchConfig(topK int) tmark.Config {
	return tmark.Config{Alpha: cfgAlpha, Gamma: cfgGamma, Lambda: cfgLambda,
		Epsilon: cfgEpsilon, MaxIterations: cfgMaxIter, ICAUpdate: true,
		FeatureTopK: topK, Workers: cfgWorkers}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// serverArgs is the tmarkd command line of one instance: the generated
// graph files and the fixed solver flags. dir holds the instance's model
// registry and write-ahead log when the workload ingests into the main
// model.
func serverArgs(w workload, graphs map[string]string, dir string) []string {
	args := []string{
		"-default", mainModel,
		"-alpha", fmtFloat(cfgAlpha), "-gamma", fmtFloat(cfgGamma),
		"-lambda", fmtFloat(cfgLambda), "-epsilon", fmtFloat(cfgEpsilon),
		"-maxiter", strconv.Itoa(cfgMaxIter), "-workers", strconv.Itoa(cfgWorkers),
		"-topk", strconv.Itoa(w.topK),
	}
	for _, name := range []string{mainModel, probeModel} {
		if p, ok := graphs[name]; ok {
			args = append(args, "-dataset", name+"="+p)
		}
	}
	if w.ingestMain {
		args = append(args, "-model-dir", filepath.Join(dir, "models"), "-wal-dir", filepath.Join(dir, "wal"))
	}
	return args
}

// server is one running tmarkd process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	stderr *tailBuffer
}

// tailBuffer keeps the last few KiB a process wrote, for diagnostics.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8<<10; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer execs tmarkd and returns at once; started is the exec
// time that set-up is measured from. The child is killed if the
// benchmark dies first.
func startServer(bin string, args []string) (*server, time.Time, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, time.Time{}, err
	}
	s := &server{base: "http://" + addr, exited: make(chan struct{}), stderr: &tailBuffer{}}
	s.cmd = exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	s.cmd.Stdout = s.stderr
	s.cmd.Stderr = s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, time.Time{}, fmt.Errorf("start tmarkd: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	return s, started, nil
}

// stop sends SIGTERM, waits for the drain, and kills after a grace
// period. It returns only once the process has exited.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// dead reports an early exit of the process with its last output.
func (s *server) dead() error {
	select {
	case <-s.exited:
		return fmt.Errorf("tmarkd exited (%v): %s", s.err, strings.TrimSpace(s.stderr.String()))
	default:
		return nil
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// clockTicks is USER_HZ, the unit of /proc CPU times; Linux fixes it at
// 100 on every architecture Go supports.
const clockTicks = 100

// cpuTime reads the process's user plus system CPU time from
// /proc/<pid>/stat. Time the hypervisor steals is not charged to it.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	var ticks uint64
	for _, v := range f[11:13] { // utime, stime: fields 14 and 15
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * (time.Second / clockTicks), nil
}

// awaitFirst sends c until tmarkd answers 200, retrying only while the
// listener is not up yet; anything else is an error. The returned call
// holds the answered attempt.
func (s *server) awaitFirst(ctx context.Context, cl *http.Client, c *call) error {
	for {
		if err := s.dead(); err != nil {
			return err
		}
		c.err, c.status, c.resp = nil, 0, nil
		sendCall(ctx, cl, s.base, c)
		switch {
		case c.err == nil && c.status == http.StatusOK:
			return nil
		case c.err != nil && isConnRefused(c.err):
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		case c.err != nil:
			return c.err
		default:
			return fmt.Errorf("set-up request answered %d: %s", c.status, bytes.TrimSpace(c.resp))
		}
	}
}

func isConnRefused(err error) bool { return errors.Is(err, syscall.ECONNREFUSED) }

// scrape fetches /metrics as a name → value map.
func (s *server) scrape(ctx context.Context, cl *http.Client) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads the Prometheus text exposition format: one
// "name[{labels}] value" sample per line, comments and blank lines
// skipped. The key keeps the label set, so labelled series stay apart.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		var name, rest string
		if i := strings.IndexByte(text, '}'); i >= 0 {
			name, rest = text[:i+1], text[i+1:]
		} else {
			name, rest, _ = strings.Cut(text, " ")
		}
		// The value may be followed by a timestamp.
		f := strings.Fields(rest)
		if len(f) == 0 || len(f) > 2 {
			return nil, fmt.Errorf("metrics line %d: want \"name value [timestamp]\", got %q", line, text)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// delta is after − before per series; a series absent before counts
// from zero, and one absent after is dropped.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// cpuTimes is the host-wide "cpu" line of /proc/stat, in clock ticks.
type cpuTimes []uint64

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make(cpuTimes, len(f)-1)
	for i, v := range f[1:] {
		out[i], _ = strconv.ParseUint(v, 10, 64)
	}
	return out
}

// stealShare is the share of CPU time the hypervisor took between two
// readings (field 8 of the cpu line); 0 when /proc/stat is unreadable.
func (a cpuTimes) stealShare(b cpuTimes) float64 {
	if len(a) < 8 || len(b) != len(a) {
		return 0
	}
	var total uint64
	for i := range a {
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0
	}
	return float64(b[7]-a[7]) / float64(total)
}
