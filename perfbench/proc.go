package main

import (
	"context"
	"errors"
	"fmt"
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

	"mrts/internal/cluster"
	"mrts/internal/service/client"
)

// procs is every child process still running, so an interrupted
// benchmark can stop them all before it exits.
var procs struct {
	sync.Mutex
	live map[*proc]bool
}

// proc is one long-running child (mrts-serve or an mrts-cluster node).
type proc struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
	err  error
}

// startProc launches bin with args, logging its output to logPath. The
// child is killed if the benchmark dies.
func startProc(bin string, args []string, logPath string) (*proc, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	procs.Lock()
	if procs.live == nil {
		procs.live = map[*proc]bool{}
	}
	procs.live[p] = true
	procs.Unlock()
	return p, nil
}

// stop interrupts the process (a graceful drain) and kills it if it has
// not exited within grace; it returns once the process is gone.
func (p *proc) stop(grace time.Duration) {
	_ = p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
	procs.Lock()
	delete(procs.live, p)
	procs.Unlock()
}

// stopAll kills every live child and waits for each.
func stopAll() {
	procs.Lock()
	live := make([]*proc, 0, len(procs.live))
	for p := range procs.live {
		live = append(live, p)
	}
	procs.Unlock()
	for _, p := range live {
		p.stop(0)
	}
}

// cpuTime is a live process's CPU time: the scheduler's run time of
// each of its threads (/proc/<pid>/task/*/schedstat, nanoseconds), which
// like utime+stime excludes time the hypervisor stole.
func (p *proc) cpuTime() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", p.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", p.cmd.Process.Pid)
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// hwmKB is the process's peak resident set (VmHWM) in KiB.
func (p *proc) hwmKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// freePort reserves an ephemeral loopback port long enough to learn its
// number.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// fleet is the server side of a service workload: one mrts-serve, or the
// nodes of an mrts-cluster.
type fleet struct {
	procs []*proc
	urls  []string
	ids   []string      // cluster member IDs (nil for mrts-serve)
	ring  *cluster.Ring // the cluster's placement ring (nil for mrts-serve)
	pprof string        // mrts-serve -pprof base URL, when enabled
}

// startServe launches one journaled mrts-serve in dir; withPprof also
// serves net/http/pprof on a second port.
func startServe(bin, dir string, withPprof bool) (*fleet, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-journal", filepath.Join(dir, "journal")}
	f := &fleet{urls: []string{fmt.Sprintf("http://127.0.0.1:%d", port)}}
	if withPprof {
		pp, err := freePort()
		if err != nil {
			return nil, err
		}
		args = append(args, "-pprof", fmt.Sprintf("127.0.0.1:%d", pp))
		f.pprof = fmt.Sprintf("http://127.0.0.1:%d", pp)
	}
	p, err := startProc(filepath.Join(bin, "mrts-serve"), args, filepath.Join(dir, "serve.log"))
	if err != nil {
		return nil, err
	}
	f.procs = []*proc{p}
	return f, nil
}

// clusterSize is the node count of the cluster workload.
const clusterSize = 3

// startCluster launches a 3-node mrts-cluster on loopback, each node with
// its own data directory under dir.
func startCluster(bin, dir string) (*fleet, error) {
	f := &fleet{}
	var members []string
	for i := range clusterSize {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("n%d", i+1)
		f.ids = append(f.ids, id)
		f.urls = append(f.urls, fmt.Sprintf("http://127.0.0.1:%d", port))
		members = append(members, id+"="+f.urls[i])
	}
	f.ring = cluster.NewRing(f.ids)
	for i, id := range f.ids {
		args := []string{"-id", id, "-addr", strings.TrimPrefix(f.urls[i], "http://"),
			"-members", strings.Join(members, ","), "-dir", filepath.Join(dir, id)}
		p, err := startProc(filepath.Join(bin, "mrts-cluster"), args, filepath.Join(dir, id+".log"))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
	}
	return f, nil
}

// waitReady polls /readyz on every process until each answers 200.
func (f *fleet) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	hc := &http.Client{Timeout: time.Second}
	for i, u := range f.urls {
		for {
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, u+"/readyz", nil)
			resp, err := hc.Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-f.procs[i].done:
				return fmt.Errorf("%s exited before it was ready: %v (see its log)", f.procs[i].cmd.Path, f.procs[i].err)
			case <-ctx.Done():
				return fmt.Errorf("%s not ready: %w", u, context.Cause(ctx))
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}

// stop drains and stops every process of the fleet, all at once.
func (f *fleet) stop() {
	var wg sync.WaitGroup
	for _, p := range f.procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.stop(10 * time.Second)
		}()
	}
	wg.Wait()
}

// cpuTime sums the fleet's CPU time.
func (f *fleet) cpuTime() (time.Duration, error) {
	var sum time.Duration
	for _, p := range f.procs {
		t, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// rssMB sums the fleet's peak resident sets, in MB.
func (f *fleet) rssMB() (float64, error) {
	var sum int64
	for _, p := range f.procs {
		kb, err := p.hwmKB()
		if err != nil {
			return 0, err
		}
		sum += kb
	}
	return float64(sum) / 1024, nil
}

// metrics scrapes /metrics from every process and sums the samples.
func (f *fleet) metrics(ctx context.Context) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, u := range f.urls {
		text, err := client.New(u).Metrics(ctx)
		if err != nil {
			return nil, err
		}
		m, err := parseMetrics(text)
		if err != nil {
			return nil, err
		}
		addMetrics(sum, m)
	}
	return sum, nil
}

// owner is the cluster member the ring assigns a job fingerprint to, with
// every member alive (the benchmark injects no faults).
func (f *fleet) owner(fp uint64) string {
	return f.ring.Owner(fp, func(string) bool { return true })
}

// hostTicks reads the machine-wide CPU tick counters from /proc/stat:
// the ticks the hypervisor stole from this guest, and all ticks.
func hostTicks() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // guest time is already counted in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
