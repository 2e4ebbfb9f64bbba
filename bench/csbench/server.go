package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverFlags are the csserve flags each workload serves with (beyond
// -data and -addr).
var serverFlags = map[string][]string{
	wlUniform:     {"-result-cache", "0", "-cache", "0", "-pruning"},
	wlZipf:        {}, // defaults: 64 MiB result cache, 256-entry stats cache
	wlLiveIngest:  {"-ingest", "-refresh", "200ms", "-compact-threshold", strconv.Itoa(liveCompactThreshold), "-result-cache", "0", "-cache", "0", "-pruning"},
	wlPostCompact: {"-ingest", "-compact-threshold", "0", "-result-cache", "0", "-cache", "0", "-pruning"},
}

// liveCompactThreshold makes the paced writer trigger a background
// compaction about every two seconds — once per measured window, so no
// window's tail is free of one.
const liveCompactThreshold = 200

// statsz mirrors the /statsz fields the harness reads.
type statsz struct {
	NumDocs     int      `json:"num_docs"`
	Generations []uint64 `json:"generations"`
	Requests    int64    `json:"requests"`
	ShedQueue   int64    `json:"shed_queue_full"`
	ShedTimeout int64    `json:"shed_queue_timeout"`
	PendingDocs int      `json:"pending_docs"`
	ResultCache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Coalesced int64 `json:"coalesced"`
	} `json:"result_cache"`
	BlockCache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"block_cache"`
}

// server is one spawned csserve.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
	client *http.Client
}

// buildServer compiles cmd/csserve from the checkout at root.
func buildServer(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/csserve")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/csserve: %w\n%s", err, b)
	}
	return nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns csserve over dir and returns once /healthz answers
// 200. A server that exits first (busy port, unreadable data) is an
// error carrying its stderr.
func startServer(ctx context.Context, bin, dir string, flags []string, client *http.Client) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + addr, exited: make(chan struct{}), client: client}
	s.cmd = exec.Command(bin, append([]string{"-data", dir, "-addr", addr}, flags...)...)
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("csserve exited before ready: %v\n%s", s.err, s.stderr.String())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("csserve not ready after 60s\n%s", s.stderr.String())
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills a server that
// outlives it. It returns an error when the server did not exit
// cleanly.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return fmt.Errorf("csserve exited early: %v\n%s", s.err, s.stderr.String())
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("csserve ignored SIGTERM for 15s and was killed\n%s", s.stderr.String())
	}
	if s.err != nil {
		return fmt.Errorf("csserve: %v\n%s", s.err, s.stderr.String())
	}
	return nil
}

func (s *server) statsz() (statsz, error) {
	var st statsz
	resp, err := s.client.Get(s.url + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statsz: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// peakRSSMB reads the server's resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}
