package main

// The daemon under test: one scrutinizerd process per set-up or restart,
// always on a loopback port of its own and a data directory inside the
// run's scratch space, always stopped (and waited for) by its owner.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
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

type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	exited chan struct{}
	err    error // Wait result, valid once exited is closed
	log    tailBuffer
}

// startDaemon launches the binary durable on dataDir with corpusDir as its
// startup corpus. It returns once the process runs, not once it is ready.
func startDaemon(bin, dataDir, corpusDir string, parallel int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://127.0.0.1:" + port, exited: make(chan struct{})}
	d.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:"+port,
		"-corpus", corpusDir,
		"-data-dir", dataDir,
		"-parallel", strconv.Itoa(parallel),
		"-log-level", "warn",
	)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	// The daemon must not outlive the harness, even if the harness is
	// killed before its deferred stop runs.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("daemon exited before ready (%v): %s", d.err, d.log.String())
		default:
		}
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after %v: %s", timeout, d.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (its graceful shutdown closes the
// journal) and waits for it to exit, killing it if the drain hangs. Safe
// to call more than once.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return nil
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill() // the wait below reports the outcome
		<-d.exited
		return fmt.Errorf("daemon ignored SIGTERM for 30s; killed")
	}
	return nil
}

// peakRSSMiB reads the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuSeconds reads the user+system CPU time the daemon has consumed.
func (d *daemon) cpuSeconds() (float64, error) {
	return procCPUSeconds(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
}

// procCPUSeconds reads utime+stime from a /proc/<pid>/stat file.
func procCPUSeconds(path string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short %s", path)
	}
	var ticks float64
	for _, f := range fields[11:13] { // utime, stime
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return ticks / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times (100 on Linux).
const clockTicks = 100

// stealSeconds reads the machine's cumulative CPU steal time: cycles the
// hypervisor gave to other guests, a direct measure of noisy neighbours.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[8], 64)
	return v / clockTicks
}

// scrape is one /metrics exposition: series (name plus label set) to value.
type scrape map[string]float64

func (d *daemon) scrapeMetrics(hc *http.Client) (scrape, error) {
	resp, err := hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics returned %d", resp.StatusCode)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of metric name whose label set passes keep (nil
// keeps all).
func (s scrape) sum(name string, keep func(labels string) bool) float64 {
	var total float64
	for series, v := range s {
		labels, ok := strings.CutPrefix(series, name)
		if !ok || (labels != "" && labels[0] != '{') {
			continue
		}
		if keep == nil || keep(labels) {
			total += v
		}
	}
	return total
}

// delta is after.sum - before.sum.
func delta(before, after scrape, name string, keep func(string) bool) float64 {
	return after.sum(name, keep) - before.sum(name, keep)
}

// apiRoute keeps the /v1 route classes (not probes or scrapes).
func apiRoute(labels string) bool { return strings.Contains(labels, `route="v1/`) }

// tailBuffer keeps the last few KiB a process wrote, for error messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if t.buf.Len() > 8<<10 {
		t.buf.Next(t.buf.Len() - 4<<10)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(t.buf.String())
}
