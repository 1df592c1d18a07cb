// Command perfbench is the mrts performance ledger: it times the shipped
// programs (mrts-sweep, mrts-serve, mrts-cluster) on seeded fixed-work
// inputs, checks their outputs, and prints one JSON result line.
//
// Usage (normally through run.sh, which builds the programs first):
//
//	perfbench -bin DIR -work DIR --workload figs_serve --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics of one workload.
// With --trace 1 it runs every part once untraced and once traced and
// reports the per-layer metrics, writing its spans as JSONL to the work
// directory. See README.md for the metrics and their layer mapping.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads pairs each sweep kind with a service kind. A run measures
// both halves back to back, so every run reports every end-to-end
// metric; the two workloads split the layers between them.
var workloads = map[string]struct{ sweep, service string }{
	// Paper figures: the dispatch loop, batch memo, selection, faults and
	// vfabric; then one journaled mrts-serve.
	"figs_serve": {"figs", "serve"},
	// Phased Markov workloads: MPU predictors, merge rebuilds and the
	// failed-eviction scan; then a 3-node mrts-cluster with replication
	// and redirects.
	"phase_cluster": {"phase", "cluster"},
}

// sweepShare is the part of a run's time given to its sweep half.
const sweepShare = 0.5

// nominal is how long one sweep unit or one service round of each kind
// takes on the reference host (an idle 2-vCPU Xeon VM). It turns a
// run's --seconds into a fixed number of units and rounds, so every run
// of a given length does the same work whatever the host's speed: the
// server's heap and caches grow over a run, and a median over more rounds
// would drift with host speed.
var nominal = map[string]time.Duration{
	"figs":    7 * time.Second,
	"phase":   10 * time.Second,
	"serve":   4500 * time.Millisecond,
	"cluster": 7 * time.Second,
}

// reps is how many units or rounds of kind fit in budget on the
// reference host (at least least).
func reps(kind string, budget time.Duration, least int) int {
	return max(least, int(math.Round(float64(budget)/float64(nominal[kind]))))
}

// overrun is how far past its budget a slow host may take a half before
// it stops early (after its minimum count): it keeps a run within the
// benchmark's time limit.
const overrun = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		bin      = flag.String("bin", "", "directory holding the mrts-sweep, mrts-serve and mrts-cluster binaries")
		work     = flag.String("work", "", "directory for journals, logs, profiles and spans")
		wl       = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
		seed     = flag.Uint64("seed", defaultSeed, "input seed")
		seconds  = flag.Int("seconds", 30, "measurement time of a timed run")
		traceArg = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*wl]
	if !ok || *bin == "" || *work == "" || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -bin, -work, --seconds >= 1 and --workload (%s)\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()

	dir := filepath.Join(*work, fmt.Sprintf("run-%s-%d-%d", *wl, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	var (
		res *result
		err error
	)
	ctx := context.Background()
	if *traceArg == 1 {
		res, err = tracedRun(ctx, *bin, dir, *wl, *seed)
	} else {
		res, err = timedRun(ctx, *bin, dir, w.sweep, w.service, *seed, time.Duration(*seconds)*time.Second)
	}
	stopAll()
	if err != nil {
		fatal(fmt.Errorf("%w (logs in %s)", err, dir))
	}
	if res.Correct {
		os.RemoveAll(dir)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: outputs are NOT correct (logs in %s)\n", dir)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	stopAll()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// timedRun measures one workload: the sweep half, then the service half,
// each sized to its share of the run's time. Every bounded metric is a CPU
// time or a size: CPU time excludes what the hypervisor steals, which
// on a shared 2-vCPU host moves wall-clock latencies threefold between
// minutes. Wall times and latencies go to standard error.
func timedRun(ctx context.Context, bin, dir, sweepKind, svcKind string, seed uint64, d time.Duration) (*result, error) {
	sweepBudget := time.Duration(float64(d) * sweepShare)
	sw, err := runSweepPart(bin, sweepKind, seed, reps(sweepKind, sweepBudget, 1), overrun*sweepBudget)
	if err != nil {
		return nil, err
	}
	svcBudget := d - sweepBudget
	svc, err := runServicePart(ctx, bin, dir, svcKind, seed, reps(svcKind, svcBudget, minRounds), overrun*svcBudget)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{finite(v), unit} }
	put("setup_s", "s", median(svc.setupCPU))
	put("sweep_cpu_s", "s", sw.cpuS())
	put("sweep_max_rss_mb", "MB", sw.rssMB())
	put("server_max_rss_mb", "MB", svc.rssMB)
	for _, c := range jobClasses {
		lat, _, cpuMS, _ := svc.classStats(c)
		if _, err := summarize(lat); err != nil {
			return nil, fmt.Errorf("%s latency: %w", c, err)
		}
		// A hit job costs about 1 ms of server CPU, mostly HTTP, journal
		// and wake-ups, and that cost moved ±30% with host load on the
		// cluster; it is reported on standard error and by the traced run.
		if c != classHit {
			put(c+"_cpu_ms_per_job", "ms", cpuMS)
		}
	}

	for _, u := range sw.units {
		res.Attempted += int64(len(u))
	}
	for _, a := range svc.accounts {
		res.Attempted += a.Attempted
		res.Failed += a.Failed
	}
	wrong := append(append([]string{}, sw.wrong...), svc.wrong...)
	res.Correct = len(wrong) == 0
	report(os.Stderr, sweepKind, seed, sw, svc, wrong)
	return res, nil
}

// report writes the human-readable side of a timed run: figure digests,
// unit times, the digest of the seed's first service round, per-class
// latencies with their sample counts, and failure accounting.
func report(out *os.File, sweepKind string, seed uint64, sw *sweepPart, svc *servicePart, wrong []string) {
	fmt.Fprintf(out, "perfbench: %s sweep, seed %d: %d unit(s), wall/cpu s:", sweepKind, seed, len(sw.units))
	for _, u := range sw.units {
		var cpu time.Duration
		for _, r := range u {
			cpu += r.cpu
		}
		fmt.Fprintf(out, " %.3f/%.3f", unitWall(u).Seconds(), cpu.Seconds())
	}
	fmt.Fprintln(out)
	figs := make([]string, 0, len(sw.digests))
	for f := range sw.digests {
		figs = append(figs, f)
	}
	sort.Strings(figs)
	for _, f := range figs {
		fmt.Fprintf(out, "  digest -fig %-8s %s\n", f, sw.digests[f])
	}
	var first []byte
	for _, p := range svc.rounds[0] {
		for _, o := range p.outs {
			first = append(first, o.digest...)
		}
	}
	fmt.Fprintf(out, "perfbench: %s, set-up wall s %.3f cpu s %.3f (medians of %d); %d round(s); round-0 report digest %s\n",
		svc.kind, median(svc.setupS), median(svc.setupCPU), len(svc.setupS), len(svc.rounds), digest(first))
	fmt.Fprintf(out, "  %-6s %6s %6s %6s %6s | retries %4s %4s %4s %4s | %8s %8s %6s %5s %-6s | %8s %8s %6s\n",
		"class", "tried", "ok", "failed", "retry", "429", "503", "5xx", "conn", "p50ms", "p90ms", "n", "tail", "max-p", "jobs/s", "cpu-ms", "steal")
	for _, c := range jobClasses {
		a := svc.accounts[c]
		lat, perS, cpuMS, steal := svc.classStats(c)
		d, _ := summarize(lat)
		fmt.Fprintf(out, "  %-6s %6d %6d %6d %6d | retries %4d %4d %4d %4d | %8.3f %8.3f %6d %5d %-6s | %8.1f %8.3f %5.1f%%\n",
			c, a.Attempted, a.Succeeded, a.Failed, a.retries(), a.Retry429, a.Retry503, a.Retry5xx, a.RetryTransport,
			finite(d.P50), finite(d.P90), d.N, d.Tail, highestPercentile(d.N), perS, cpuMS, 100*steal)
	}
	for _, c := range jobClasses {
		fmt.Fprintf(out, "  %s cpu ms/job by round:", c)
		for _, p := range svc.phases(c) {
			fmt.Fprintf(out, " %.3f", ms(p.cpu)/float64(len(p.outs)))
		}
		fmt.Fprintln(out)
	}
	for _, w := range wrong {
		fmt.Fprintln(out, "  WRONG:", w)
	}
}
