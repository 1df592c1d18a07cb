package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"mrts/internal/sim"
	"mrts/internal/workload"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	if _, err := summarize(seq(99)); err == nil {
		t.Fatal("99 samples leave 9 beyond p90; want an error")
	}
	d, err := summarize(seq(100))
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 100 || d.Tail != 10 || d.P50 != 50 || d.P90 != 90 {
		t.Fatalf("summarize(1..100) = %+v, want N 100, Tail 10, P50 50, P90 90", d)
	}
	// A failed job misses every limit: it lands in the tail.
	v := seq(100)
	for i := range 11 {
		v[i] = failedLatency
	}
	if d, _ := summarize(v); d.P90 != failedLatency {
		t.Fatalf("11 failed of 100: p90 = %v, want the failed sentinel", d.P90)
	}
	for n, want := range map[int]string{99: "", 100: "p90", 999: "p90", 1000: "p99", 10000: "p99.9"} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestJobSequencesDeterministic(t *testing.T) {
	set := hitSet()
	if len(set) != 76 {
		t.Fatalf("hit set has %d points, want the 76 of the Fig. 8 grid", len(set))
	}
	seen := map[string]bool{}
	for _, s := range set {
		if seen[specKey(s)] {
			t.Fatalf("hit set repeats %s", specKey(s))
		}
		seen[specKey(s)] = true
	}
	if !reflect.DeepEqual(hitJobs(5, 2, set), hitJobs(5, 2, set)) || reflect.DeepEqual(hitJobs(5, 2, set), hitJobs(5, 3, set)) {
		t.Fatal("hit phase must be a function of (seed, round)")
	}
	a := append(simJobs(5, 2), buildJobs(5, 2)...)
	if !reflect.DeepEqual(a, append(simJobs(5, 2), buildJobs(5, 2)...)) ||
		reflect.DeepEqual(simJobs(5, 2), simJobs(5, 3)) || reflect.DeepEqual(buildJobs(5, 2), buildJobs(5, 3)) {
		t.Fatal("sim and build phases must be functions of (seed, round)")
	}
	count := map[string]int{}
	for _, j := range a {
		count[j.class]++
		if err := j.spec.Validate(); err != nil {
			t.Fatalf("invalid %s job: %v", j.class, err)
		}
		if seen[specKey(j.spec)] {
			t.Fatalf("cold job %s repeats", specKey(j.spec))
		}
		seen[specKey(j.spec)] = true
	}
	if count[classSim] != simPerRound || count[classBuild] != bldPerRound {
		t.Fatalf("sim and build phase sizes %v", count)
	}
	// Every round runs the same policy mix; only order and seeds differ.
	mix := func(jobs []job) map[string]int {
		m := map[string]int{}
		for _, j := range jobs {
			m[j.spec.Policy]++
		}
		return m
	}
	if !reflect.DeepEqual(mix(simJobs(5, 2)), mix(simJobs(9, 3))) || !reflect.DeepEqual(mix(buildJobs(5, 2)), mix(buildJobs(9, 3))) {
		t.Fatal("policy mix must not depend on seed or round")
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# TYPE mrts_jobs_done_total counter
mrts_jobs_done_total 42
# TYPE mrts_point_eval_seconds histogram
mrts_point_eval_seconds_bucket{le="0.01"} 3
mrts_point_eval_seconds_bucket{le="+Inf"} 4
mrts_point_eval_seconds_sum 0.2
mrts_point_eval_seconds_count 4
`
	m, err := parseMetrics(text)
	if err != nil {
		t.Fatal(err)
	}
	if m["mrts_jobs_done_total"] != 42 || m[`mrts_point_eval_seconds_bucket{le="+Inf"}`] != 4 {
		t.Fatalf("parsed %v", m)
	}
	if got := histMean(m, "mrts_point_eval_seconds"); got != 0.05 {
		t.Fatalf("histMean = %v, want 0.05", got)
	}
	addMetrics(m, map[string]float64{"mrts_jobs_done_total": 8})
	if m["mrts_jobs_done_total"] != 50 {
		t.Fatal("addMetrics must sum per-node samples")
	}
	if _, err := parseMetrics("garbage\n"); err == nil {
		t.Fatal("a line without a value must fail")
	}
}

func TestParseMemStats(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	ms, err := parseMemStats(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if ms["TotalAlloc"] == 0 || ms["HeapAlloc"] == 0 {
		t.Fatalf("memstats %v lack TotalAlloc/HeapAlloc", ms)
	}
	if _, err := parseMemStats("heap profile: 0: 0 [0: 0] @ heap/1048576\n"); err == nil {
		t.Fatal("a profile without MemStats must fail")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mrts/internal/sim.(*Stepper).Step":          "sim",
		"mrts/internal/reconfig.(*Controller).evict": "reconfig",
		"mrts/internal/h264.(*Encoder).encodeMB":     "workload",
		"mrts/internal/service/journal.(*J).Append":  "service",
		"runtime.mallocgc":                           "runtime-gc",
		"runtime.gcDrain":                            "runtime-gc",
		"runtime.mapaccess2_faststr":                 "other",
		"sort.insertionSort":                         "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestProfileShares(t *testing.T) {
	w, err := workload.Build(workload.Options{Frames: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		if _, err := sim.RunRISC(w.App, w.Trace); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("shares sum to %v%%, want 100%%", sum)
	}
	if shares["sim"]+shares["core"]+shares["trace"] < 50 {
		t.Fatalf("a RunRISC loop spends under half its samples in the dispatch loop: %v", shares)
	}
	if _, err := profileShares([]byte("not gzip")); err == nil {
		t.Fatal("garbage must fail to decode")
	}
}

func TestSelfTimes(t *testing.T) {
	s := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	self := selfTimes(s)
	if self["job"] != 40 || self["a"] != 30 || self["c"] != 30 {
		t.Fatalf("self times %v, want job 40 (100 minus [10,60] and [90,100])", self)
	}
}

// buildPrograms builds the CLIs a run drives into a temporary directory.
func buildPrograms(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+"/", "./cmd/mrts-sweep", "./cmd/mrts-serve", "./cmd/mrts-cluster")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs each workload for a few seconds (one sweep unit, one
// service round) and checks that every end-to-end metric is present,
// positive and correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs full sweeps")
	}
	bin := buildPrograms(t)
	want := []string{"setup_s", "sweep_cpu_s", "sweep_max_rss_mb", "server_max_rss_mb",
		"sim_cpu_ms_per_job", "build_cpu_ms_per_job"}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			res, err := timedRun(context.Background(), bin, t.TempDir(), w.sweep, w.service, defaultSeed, time.Second)
			stopAll()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range want {
				if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
					t.Errorf("metric %s = %+v, want a positive value", m, v)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
			}
		})
	}
}

// TestTracedSmoke runs the traced pass once and checks the per-layer
// metrics and the span file.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs full sweeps twice")
	}
	bin := buildPrograms(t)
	dir := filepath.Join(t.TempDir(), "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := tracedRun(context.Background(), bin, dir, "figs_serve", defaultSeed)
	stopAll()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	for _, m := range []string{"sim.cpu_share.figs", "reconfig.cpu_share.phase", "exp.fig_all_s",
		"client.poll_lag_ms.hit", "cluster.redirect_share", "bench.trace_overhead_pct.cluster", "cluster.build_p90_ms", "serve.hit_cpu_ms_per_job"} {
		if _, ok := res.Metrics[m]; !ok {
			t.Errorf("traced run lacks %s", m)
		}
	}
	matches, _ := filepath.Glob(filepath.Join(filepath.Dir(dir), "spans-*.jsonl"))
	if len(matches) != 1 {
		t.Fatalf("span files %v", matches)
	}
	if strings.Contains(matches[0], "..") {
		t.Fatal("span file escapes the work directory")
	}
}
