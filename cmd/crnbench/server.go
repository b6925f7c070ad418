package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"crn/internal/telemetry"
)

// This file runs crnserve as a child process and reads what it exposes from
// outside: /readyz, /healthz, /metrics, /debug/pprof/heap?debug=1 (MemStats)
// and /proc/<pid>. Nothing here reaches into the server's memory.

// server is one launched crnserve child.
type server struct {
	cmd     *exec.Cmd
	addr    string // serving listener, host:port
	ops     string // -metrics-addr listener, host:port
	dataDir string // fresh temp directory owned by this server ("" if none)
	stderr  *tailBuffer
	done    chan struct{} // closed once the process has been reaped
	readyS  float64       // launch → /readyz 200
}

// children tracks live servers so an interrupt or a failed run can kill
// them all before the harness exits.
var children struct {
	sync.Mutex
	set map[*server]struct{}
}

func registerChild(s *server) {
	children.Lock()
	defer children.Unlock()
	if children.set == nil {
		children.set = map[*server]struct{}{}
	}
	children.set[s] = struct{}{}
}

func unregisterChild(s *server) {
	children.Lock()
	defer children.Unlock()
	delete(children.set, s)
}

// killChildren kills every live child and waits for each to be reaped.
func killChildren() {
	children.Lock()
	live := make([]*server, 0, len(children.set))
	for s := range children.set {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		_ = s.cmd.Process.Kill() // already-exited is fine
		<-s.done
		unregisterChild(s)
	}
}

// tailBuffer keeps the last max bytes written to it: enough server stderr to
// explain a failure without holding a whole run's log.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

var opsClient = &http.Client{Timeout: 20 * time.Second}

// launch starts crnserve with the workload's flags on two free loopback
// ports and returns once /readyz answers 200. A durable workload gets a
// fresh temp data directory unless reuseDir names the directory of a
// stopped predecessor (the restart check).
func launch(ctx context.Context, p *prepared, w workloadSpec, reuseDir string) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	ops, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, ops: ops, done: make(chan struct{}), stderr: &tailBuffer{max: 64 << 10}}
	if w.Durable {
		s.dataDir = reuseDir
		if s.dataDir == "" {
			if s.dataDir, err = os.MkdirTemp(p.work, "data-"); err != nil {
				return nil, err
			}
		}
	}
	args := append([]string{"-addr", addr, "-metrics-addr", ops, "-model", p.modelPath},
		w.serverFlags(p.sz, s.dataDir)...)
	s.cmd = exec.Command(p.serveBin, args...)
	s.cmd.Stderr = s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start crnserve: %w", err)
	}
	registerChild(s)
	go func() {
		_ = s.cmd.Wait() // the exit status is read from ProcessState
		close(s.done)
	}()

	deadline := time.NewTimer(120 * time.Second)
	defer deadline.Stop()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get("http://" + addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.readyS = time.Since(start).Seconds()
				return s, nil
			}
		}
		select {
		case <-s.done:
			unregisterChild(s)
			return nil, fmt.Errorf("crnserve exited before becoming ready: %v\n%s", s.cmd.ProcessState, s.stderr)
		case <-deadline.C:
			s.kill()
			return nil, fmt.Errorf("crnserve not ready after 120s\n%s", s.stderr)
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
	unregisterChild(s)
}

// stop asks for a graceful shutdown (SIGTERM: drain, final checkpoint),
// waits for the process to exit, and reports a non-zero exit. The data
// directory is left for the caller: the restart check reuses it once.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.kill()
		return fmt.Errorf("signal crnserve: %w", err)
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("crnserve did not exit within 30s of SIGTERM\n%s", s.stderr)
	}
	unregisterChild(s)
	if !s.cmd.ProcessState.Success() {
		return fmt.Errorf("crnserve exited with %v\n%s", s.cmd.ProcessState, s.stderr)
	}
	return nil
}

// removeData deletes the server's temp data directory; call after stop.
func (s *server) removeData() {
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir) // best effort: it lives under .bench_build
	}
}

// --- Scrapes ------------------------------------------------------------------

func (s *server) get(base, path string) ([]byte, error) {
	resp, err := opsClient.Get("http://" + base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// families is one parse of the server's /metrics exposition.
type families map[string]*telemetry.ParsedFamily

func (s *server) metrics() (families, error) {
	body, err := s.get(s.ops, "/metrics")
	if err != nil {
		return nil, err
	}
	return telemetry.ParseText(bytes.NewReader(body))
}

// sample returns one counter or gauge sample (0 when absent).
func (f families) sample(name, key, val string) float64 {
	v, _ := f[name].Sample(key, val)
	return v
}

// delta is after−before of one counter sample.
func delta(before, after families, name, key, val string) float64 {
	return after.sample(name, key, val) - before.sample(name, key, val)
}

// histDelta is the windowed difference of one histogram child.
func histDelta(before, after families, name, key, val string) *telemetry.ParsedHist {
	a := after[name].Hist(key, val)
	if a == nil {
		return &telemetry.ParsedHist{}
	}
	if b := before[name].Hist(key, val); b != nil {
		return a.Sub(b)
	}
	return a
}

// memStats is the subset of runtime.MemStats the heap profile's debug=1
// footer prints.
type memStats struct {
	Mallocs    uint64
	TotalAlloc uint64
	NumGC      uint64
	PauseNs    []uint64 // circular buffer of recent GC pauses, indexed by (NumGC+255)%256
}

func (s *server) memStats() (memStats, error) {
	body, err := s.get(s.ops, "/debug/pprof/heap?debug=1")
	if err != nil {
		return memStats{}, err
	}
	return parseMemStats(body)
}

func parseMemStats(body []byte) (memStats, error) {
	var ms memStats
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		name, rest, ok := strings.Cut(line[2:], " = ")
		if !ok {
			continue
		}
		switch name {
		case "Mallocs", "TotalAlloc", "NumGC":
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return ms, fmt.Errorf("memstats %s: %w", name, err)
			}
			switch name {
			case "Mallocs":
				ms.Mallocs = v
			case "TotalAlloc":
				ms.TotalAlloc = v
			case "NumGC":
				ms.NumGC = v
			}
			found++
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(rest, "[]")) {
				v, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return ms, fmt.Errorf("memstats PauseNs: %w", err)
				}
				ms.PauseNs = append(ms.PauseNs, v)
			}
			found++
		}
	}
	if found < 4 {
		return ms, fmt.Errorf("heap profile footer lacks MemStats (found %d of 4 fields)", found)
	}
	return ms, nil
}

// pauseMsSince returns the mean GC pause, in milliseconds, of the cycles
// that completed after the earlier snapshot (at most the 256 the runtime
// remembers).
func (ms memStats) pauseMsSince(before memStats) float64 {
	n := ms.NumGC - before.NumGC
	if n == 0 || len(ms.PauseNs) == 0 {
		return 0
	}
	ring := uint64(len(ms.PauseNs))
	if n > ring {
		n = ring
	}
	var sum uint64
	for i := uint64(0); i < n; i++ {
		sum += ms.PauseNs[(ms.NumGC-1-i)%ring]
	}
	return float64(sum) / float64(n) / 1e6
}

// health is the part of /healthz the checks read.
type health struct {
	RepCache struct {
		Resident int    `json:"resident"`
		Promoted uint64 `json:"promoted"`
	} `json:"rep_cache"`
	Durable *struct {
		Replayed int `json:"replayed_records"`
	} `json:"durable"`
}

func (s *server) health() (health, error) {
	var h health
	body, err := s.get(s.addr, "/healthz")
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(body, &h)
}

// clockTick is the kernel's USER_HZ; 100 on every Linux the toolchain
// targets.
const clockTick = 100

// cpuSeconds returns the server's user+system CPU time from
// /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(raw)
}

func parseProcStatCPU(raw []byte) (float64, error) {
	// The command name may hold spaces; fields are counted after its
	// closing parenthesis. utime and stime are fields 14 and 15 overall,
	// so 12 and 13 (0-based 11 and 12) after the name.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	fields := strings.Fields(string(raw[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("malformed /proc stat: %d fields", len(fields))
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times %q %q", fields[11], fields[12])
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB returns the server's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc status lacks VmHWM")
}
