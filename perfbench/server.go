package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/fastlsa-server from the checkout at root into
// outDir and returns the binary's path.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "fastlsa-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/fastlsa-server")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stderr, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build fastlsa-server: %w\n%s", err, stderr.String())
	}
	return bin, nil
}

// server is one running fastlsa-server process on loopback.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  bytes.Buffer
	done chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// errExited reports a server that exited before it became ready.
var errExited = errors.New("server exited during start-up")

// startServer execs the binary with default flags (only the listen address
// and -quiet set) and returns once GET /readyz answers 200, with the time
// from exec to that answer. A server that exits during start-up (another
// process took the free port first) is retried on a new port.
func startServer(bin string) (*server, time.Duration, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var s *server
		var took time.Duration
		if s, took, err = startOnce(bin); err == nil {
			return s, took, nil
		}
		if !errors.Is(err, errExited) {
			break
		}
	}
	return nil, 0, err
}

func startOnce(bin string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	s := &server{base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan error, 1)}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port), "-quiet")
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	probe := &http.Client{Timeout: time.Second}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	deadline := start.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			return nil, 0, fmt.Errorf("%w: %v\n%s", errExited, err, s.log.String())
		default:
		}
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.stop()
	return nil, 0, errors.New("server not ready within 30s")
}

// stop sends SIGTERM, waits for the graceful exit, and kills the process if
// it has not exited within ten seconds.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMiB reads the server's VmHWM (peak resident set) from procfs.
func (s *server) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// client posts align requests over kept-alive loopback connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

// align posts one request body and returns the reply body; a non-200
// status is an error.
func (c *client) align(ctx context.Context, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/align", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }
