package main

import (
	"bufio"
	"bytes"
	"context"
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
)

// programRun is one finished run of a batch program.
type programRun struct {
	Wall   time.Duration
	Stdout []byte
	// Marks holds, for each requested marker, when the first stdout line
	// containing it arrived (measured from process start).
	Marks    map[string]time.Duration
	MaxRSSMB float64
	RSS      []float64 // resident-set samples, MiB
}

// runProgram runs bin to completion, timing it and stamping the arrival
// of the first stdout line containing each marker ("" marks the first
// line of any kind). The program is killed if ctx ends first.
func runProgram(ctx context.Context, bin string, args []string, markers ...string) (programRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr tailBuffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return programRun{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return programRun{}, err
	}
	run := programRun{Marks: map[string]time.Duration{}}
	rss := sampleRSS(cmd.Process.Pid)
	var buf bytes.Buffer
	rd := bufio.NewReader(out)
	for {
		line, rerr := rd.ReadBytes('\n')
		if len(line) > 0 {
			at := time.Since(t0)
			for _, m := range markers {
				if _, seen := run.Marks[m]; !seen && bytes.Contains(line, []byte(m)) {
					run.Marks[m] = at
				}
			}
			buf.Write(line)
		}
		if rerr != nil {
			break
		}
	}
	run.RSS = rss.finish()
	werr := cmd.Wait()
	run.Wall = time.Since(t0)
	run.Stdout = buf.Bytes()
	run.MaxRSSMB = maxRSSMB(cmd.ProcessState)
	if werr != nil {
		return run, fmt.Errorf("%s: %w; stderr: %s", bin, werr, stderr.String())
	}
	return run, nil
}

// maxRSSMB returns the peak resident set of a finished process in MiB.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// rssInterval is how often a running program's resident set is sampled.
const rssInterval = 50 * time.Millisecond

// rssSampler samples a process's resident set until finished.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if mb, ok := readRSSMB(pid); ok {
					s.samples = append(s.samples, mb)
				}
			}
		}
	}()
	return s
}

// finish stops sampling and returns the samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// readRSSMB reads VmRSS of a live process in MiB.
func readRSSMB(pid int) (float64, bool) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// tailBuffer keeps the last 8 KiB written to it, enough to explain a
// failure without holding a long-running server's whole log.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8<<10; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// daemon is a running yieldd on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr tailBuffer
	exited chan struct{}
	werr   error
}

// startDaemon starts yieldd with its default flags on a free loopback
// port and returns once /healthz answers 200, with the time that took.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr)
	d.cmd.Stderr = &d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.werr = d.cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := t0.Add(20 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("yieldd exited before it was ready: %v; stderr: %s", d.werr, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("yieldd did not answer /healthz within 20s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop sends SIGTERM (yieldd drains and exits), kills the process if it
// has not exited after 40 s, waits for it, and returns its peak RSS.
func (d *daemon) stop() float64 {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(40 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	return maxRSSMB(d.cmd.ProcessState)
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// setupSamples starts and stops yieldd n times and returns each
// start-to-ready time in seconds.
func setupSamples(bin string, n int) ([]float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		d, took, err := startDaemon(bin)
		if err != nil {
			return nil, err
		}
		d.stop()
		xs = append(xs, took.Seconds())
	}
	return xs, nil
}
