package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mrts/internal/arch"
	"mrts/internal/cluster"
	"mrts/internal/exp"
	"mrts/internal/fault"
	"mrts/internal/service"
	"mrts/internal/service/api"
	"mrts/internal/service/journal"
	"mrts/internal/sim"
	"mrts/internal/workload"
)

// Repetitions of each timed in-process call; the median is reported.
const layerReps = 3

// traced carries the state of a traced run.
type traced struct {
	bin, dir string
	seed     uint64
	tr       *tracer
	root     int
	metrics  map[string]metric
	wrong    []string
	jobs     int64
	failed   int64
}

func (t *traced) put(name, unit string, v float64) { t.metrics[name] = metric{finite(v), unit} }

// tracedRun runs every part once untraced and once traced, whichever
// workload is named, so each per-layer metric is present in every traced
// result. It writes the spans to <dir>/../spans-<workload>-<seed>.jsonl.
func tracedRun(ctx context.Context, bin, dir, wl string, seed uint64) (*result, error) {
	t := &traced{bin: bin, dir: dir, seed: seed, tr: &tracer{}, metrics: map[string]metric{}}
	t.root = t.tr.start(0, "perfbench.traced", "")
	for _, kind := range []string{"figs", "phase"} {
		if err := t.sweep(kind); err != nil {
			return nil, err
		}
	}
	if err := t.layers(ctx); err != nil {
		return nil, err
	}
	digests := map[string][]string{}
	for _, kind := range []string{"serve", "cluster"} {
		d, err := t.service(ctx, kind)
		if err != nil {
			return nil, err
		}
		digests[kind] = d
	}
	for i, d := range digests["serve"] {
		if d != digests["cluster"][i] {
			t.wrong = append(t.wrong, fmt.Sprintf("job %d: serve report %s, cluster report %s", i, d, digests["cluster"][i]))
		}
	}
	t.tr.end(t.root)

	path := filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-%d.jsonl", wl, seed))
	if err := t.tr.writeJSONL(path); err != nil {
		return nil, err
	}
	self := selfTimes(t.tr.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(os.Stderr, "perfbench: %d spans in %s; self time by span name:\n", len(t.tr.spans), path)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %10.3fs\n", n, self[n].Seconds())
	}
	for _, w := range t.wrong {
		fmt.Fprintln(os.Stderr, "  WRONG:", w)
	}
	return &result{Correct: len(t.wrong) == 0, Attempted: t.jobs, Failed: t.failed, Metrics: t.metrics}, nil
}

// sweep runs the kind's unit untraced, then traced: every invocation in a
// span and under -cpuprofile. The layer CPU shares pool the unit's
// profiles, so they split the same CPU time sweep_cpu_s measures.
func (t *traced) sweep(kind string) error {
	unit := sweepUnit(kind, t.seed)
	var plain time.Duration
	want := map[string]string{}
	for _, inv := range unit {
		r, err := runSweep(t.bin, inv)
		if err != nil {
			return err
		}
		plain += r.wall
		want[r.fig] = r.digest
	}
	part := t.tr.start(t.root, "sweep."+kind, "")
	var traced time.Duration
	var profiles [][]byte
	for _, inv := range unit {
		prof := filepath.Join(t.dir, "cpu-"+inv.fig+".pprof")
		id := t.tr.start(part, "mrts-sweep -fig "+inv.fig, "")
		r, err := runSweep(t.bin, inv, "-cpuprofile", prof)
		t.tr.end(id)
		if err != nil {
			return err
		}
		t.jobs += 2
		traced += r.wall
		t.put("exp.fig_"+inv.fig+"_s", "s", r.wall.Seconds())
		if r.digest != want[inv.fig] {
			t.wrong = append(t.wrong, fmt.Sprintf("-fig %s: traced stdout %s, untraced %s", inv.fig, r.digest, want[inv.fig]))
		}
		gz, err := os.ReadFile(prof)
		if err != nil {
			return err
		}
		profiles = append(profiles, gz)
	}
	t.tr.end(part)
	shares, err := profileShares(profiles...)
	if err != nil {
		return err
	}
	for _, l := range profileLayers {
		t.put(l+".cpu_share."+kind, "%", shares[l])
	}
	t.put("bench.trace_overhead_pct."+kind, "%", 100*(traced.Seconds()/plain.Seconds()-1))
	return nil
}

// timed runs f layerReps times inside spans named name and returns the
// median duration.
func (t *traced) timed(parent int, name string, f func() error) (time.Duration, error) {
	var d []float64
	for range layerReps {
		id := t.tr.start(parent, name, "")
		start := time.Now()
		err := f()
		d = append(d, float64(time.Since(start)))
		t.tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return time.Duration(median(d)), nil
}

// allocated runs f and returns the bytes it allocated (TotalAlloc delta).
func allocated(f func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, err
}

// layers times the coarse in-process entry points of each layer.
func (t *traced) layers(ctx context.Context) error {
	part := t.tr.start(t.root, "layers", "")
	defer t.tr.end(part)
	ws := warmWorkload
	var w *workload.Result
	d, err := t.timed(part, "workload.Build", func() (err error) {
		w, err = workload.Build(ws.Options())
		return err
	})
	if err != nil {
		return err
	}
	t.put("workload.build_ms_per_frame", "ms", float64(d.Microseconds())/1e3/float64(ws.Frames))

	var risc *sim.Report
	d, err = t.timed(part, "sim.RunRISC", func() (err error) {
		risc, err = sim.RunRISC(w.App, w.Trace)
		return err
	})
	if err != nil {
		return err
	}
	t.put("sim.risc_ns_per_exec", "ns", float64(d.Nanoseconds())/float64(risc.Executions))
	t.put("sim.executions", "count", float64(risc.Executions))

	for _, p := range jobPolicies {
		pol, err := exp.ParsePolicy(p)
		if err != nil {
			return err
		}
		var ns, execs int64
		var points int
		bytes, err := allocated(func() error {
			for _, cfg := range exp.Combos(4, 3, false) {
				id := t.tr.start(part, "exp.RunPoint", "")
				start := time.Now()
				rep, err := exp.RunPoint(ctx, w, cfg, pol)
				ns += time.Since(start).Nanoseconds()
				t.tr.end(id)
				if err != nil {
					return err
				}
				execs += rep.Executions
				points++
			}
			return nil
		})
		if err != nil {
			return err
		}
		t.put("exp.point_ns_per_exec."+p, "ns", float64(ns)/float64(execs))
		t.put("exp.point_alloc_kb."+p, "KB", float64(bytes)/1024/float64(points))
	}

	fo := fault.Options{FlapPRC: 1, CorruptFG: 1, Horizon: risc.TotalCycles / 10}
	var frep *sim.Report
	d, err = t.timed(part, "exp.RunPointFaults", func() (err error) {
		frep, err = exp.RunPointFaults(ctx, w, arch.Config{NPRC: 2, NCG: 2}, exp.PolicyMRTS, t.seed, fo)
		return err
	})
	if err != nil {
		return err
	}
	t.put("exp.fault_point_ns_per_exec", "ns", float64(d.Nanoseconds())/float64(frep.Executions))

	// The phased inputs stay at the default seed, as in the phase sweep.
	popts := workload.Options{Seed: defaultSeed, Phased: &workload.PhasedOptions{Divergence: 0.5}}
	var pw *workload.Result
	d, err = t.timed(part, "workload.Build", func() (err error) {
		pw, err = workload.Build(popts)
		return err
	})
	if err != nil {
		return err
	}
	t.put("workload.phased_build_ms", "ms", float64(d.Microseconds())/1e3)
	d, err = t.timed(part, "sim.RunRISC", func() (err error) {
		risc, err = sim.RunRISC(pw.App, pw.Trace)
		return err
	})
	if err != nil {
		return err
	}
	t.put("sim.phased_risc_ns_per_exec", "ns", float64(d.Nanoseconds())/float64(risc.Executions))
	t.put("sim.phased_executions", "count", float64(risc.Executions))
	var prep *sim.Report
	var bytes uint64
	d, err = t.timed(part, "exp.RunPoint", func() (err error) {
		bytes, err = allocated(func() (err error) {
			prep, err = exp.RunPoint(ctx, pw, exp.PhaseConfig, exp.PolicyMRTS)
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	t.put("exp.phased_point_ns_per_exec", "ns", float64(d.Nanoseconds())/float64(prep.Executions))
	t.put("exp.phased_point_alloc_mb", "MB", float64(bytes)/(1<<20))

	if err := t.inprocService(ctx, part); err != nil {
		return err
	}
	return t.journalAppend(part)
}

// inprocHits is how many cached jobs the in-process service measurement
// submits.
const inprocHits = 300

// inprocService times service.New plus Submit/Wait of a cached sim job
// with no HTTP, journal or polling in the way.
func (t *traced) inprocService(ctx context.Context, parent int) error {
	id := t.tr.start(parent, "service.New", "")
	srv := service.New(service.Options{Workers: 1})
	t.tr.end(id)
	defer srv.Close()
	spec := hitSet()[0]
	run := func() error {
		j, err := srv.Submit(spec)
		if err != nil {
			return err
		}
		if err := srv.Wait(ctx, j); err != nil {
			return err
		}
		if st := srv.Status(j, false); st.State != api.StateDone {
			return fmt.Errorf("in-process job %s: %s", st.State, st.Error)
		}
		return nil
	}
	if err := run(); err != nil { // the miss that fills the cache
		return err
	}
	id = t.tr.start(parent, "service.Submit+Wait", "")
	start := time.Now()
	for range inprocHits {
		if err := run(); err != nil {
			return err
		}
	}
	t.put("service.inproc_hit_us", "us", float64(time.Since(start).Microseconds())/inprocHits)
	t.tr.end(id)
	return nil
}

// journalAppends is how many durable appends the journal measurement makes.
const journalAppends = 200

// journalAppend times durable appends of submit-sized records.
func (t *traced) journalAppend(parent int) error {
	j, err := journal.Open(filepath.Join(t.dir, "journal-bench"))
	if err != nil {
		return err
	}
	defer j.Close()
	spec := hitSet()[0]
	id := t.tr.start(parent, "journal.Append", "")
	start := time.Now()
	for i := range journalAppends {
		rec := journal.Record{Kind: "submit", ID: fmt.Sprintf("bench-%d", i),
			Time: time.Now().UTC().Format(time.RFC3339Nano), IdemKey: "idem-bench", Spec: &spec}
		if err := j.Append(rec); err != nil {
			return err
		}
	}
	t.put("journal.append_us", "us", float64(time.Since(start).Microseconds())/journalAppends)
	t.tr.end(id)
	return nil
}

// service sets the kind up once, runs round 0 untraced and round 1
// traced, and returns the report digests of both rounds' jobs in order
// (for the serve-vs-cluster identity check).
func (t *traced) service(ctx context.Context, kind string) ([]string, error) {
	set := hitSet()
	part := t.tr.start(t.root, "service."+kind, "")
	defer t.tr.end(part)
	id := t.tr.start(part, "setup", "")
	f, cs, ref, err := setUp(ctx, t.bin, kind, filepath.Join(t.dir, kind), set, kind == "serve")
	t.tr.end(id)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	defer closeLoadClients(cs)

	plain, err := runRound(ctx, f, cs, t.seed, 0, set, latencyPoll)
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		for _, cl := range jobClasses {
			c.tally[cl] = &tally{}
		}
	}

	// Round 1, with the server's counters read around its phases.
	jobs := roundJobs(t.seed, 1, set)
	heap0, err := t.heapAlloc(f)
	if err != nil {
		return nil, err
	}
	m0, err := f.metrics(ctx)
	if err != nil {
		return nil, err
	}
	var traced round
	var heap1 uint64
	for i, js := range jobs {
		p, err := runPhase(ctx, f, cs, js, latencyPoll)
		if err != nil {
			return nil, err
		}
		traced = append(traced, p)
		if i == 0 {
			if heap1, err = t.heapAlloc(f); err != nil {
				return nil, err
			}
		}
	}
	m1, err := f.metrics(ctx)
	if err != nil {
		return nil, err
	}
	var plainWall, tracedWall time.Duration
	for i := range traced {
		plainWall += plain[i].wall
		tracedWall += traced[i].wall
	}
	t.put("bench.trace_overhead_pct."+kind, "%", 100*(tracedWall.Seconds()/plainWall.Seconds()-1))

	sp := &servicePart{kind: kind, rounds: []round{plain, traced}}
	sp.account(cs)
	sp.checkHits(ref)
	if err := sp.checkCold(ctx, newOracle()); err != nil {
		return nil, err
	}
	t.wrong = append(t.wrong, sp.wrong...)
	var digests []string
	for _, r := range sp.rounds {
		for _, p := range r {
			for _, o := range p.outs {
				t.jobs++
				if !o.ok {
					t.failed++
				}
				digests = append(digests, o.digest)
			}
		}
	}
	for _, c := range jobClasses {
		lat, perS, _, _ := sp.classStats(c)
		d, err := summarize(lat)
		if err != nil {
			return nil, fmt.Errorf("%s %s latency: %w", kind, c, err)
		}
		t.put(kind+"."+c+"_p50_ms", "ms", d.P50)
		t.put(kind+"."+c+"_p90_ms", "ms", d.P90)
		t.put(kind+"."+c+"_samples", "count", float64(d.N))
		_, _, cpuMS, _ := sp.classStats(c)
		t.put(kind+"."+c+"_cpu_ms_per_job", "ms", cpuMS)
		if c == classHit {
			t.put(kind+".hit_jobs_per_s", "1/s", perS)
		}
	}

	var all []outcome
	var specs []job
	for _, p := range traced {
		t.jobSpans(part, kind, p.outs)
		all = append(all, p.outs...)
		specs = append(specs, p.jobs...)
	}
	hit := traced[0].outs
	delta := map[string]float64{}
	for k, v := range m1 {
		delta[k] = v - m0[k]
	}
	if kind == "serve" {
		t.put("client.submit_ms.hit", "ms", medianOf(hit, func(o outcome) float64 { return ms(o.tSubmitted.Sub(o.t0)) }))
		for _, p := range traced {
			t.put("service.queue_ms."+p.class, "ms", medianOf(p.outs, func(o outcome) float64 { return ms(stamp(o.status.Started).Sub(stamp(o.status.Created))) }))
			t.put("service.run_ms."+p.class, "ms", medianOf(p.outs, func(o outcome) float64 { return ms(stamp(o.status.Finished).Sub(stamp(o.status.Started))) }))
		}
		t.put("client.poll_lag_ms.hit", "ms", medianOf(hit, func(o outcome) float64 { return ms(o.tSeen.Sub(stamp(o.status.Finished))) }))
		var polls int64
		for _, c := range cs {
			polls += c.tally[classHit].Polls
		}
		t.put("client.polls_per_job.hit", "count", float64(polls)/float64(len(hit)))
		t.put("service.alloc_kb_per_job.hit", "KB", float64(heap1-heap0)/1024/float64(len(hit)))
		hits, misses := delta["mrts_result_cache_hits_total"], delta["mrts_result_cache_misses_total"]
		t.put("service.result_cache_hit_ratio", "ratio", hits/(hits+misses))
		t.put("workload.build_s_mean", "s", histMean(delta, "mrts_workload_build_seconds"))
		t.put("exp.point_eval_ms_mean", "ms", 1e3*histMean(delta, "mrts_point_eval_seconds"))
		return digests, nil
	}

	var owner, redirected []outcome
	for i, o := range all {
		ownerURL := f.urls[memberIndex(f.ids, f.owner(cluster.Fingerprint(specs[i].spec)))]
		if strings.TrimPrefix(ownerURL, "http://") == o.entry {
			owner = append(owner, o)
		} else {
			redirected = append(redirected, o)
		}
	}
	submitMS := func(o outcome) float64 { return ms(o.tSubmitted.Sub(o.t0)) }
	t.put("cluster.submit_ms.owner", "ms", medianOf(owner, submitMS))
	t.put("cluster.submit_ms.redirected", "ms", medianOf(redirected, submitMS))
	t.put("cluster.redirect_share", "ratio", float64(len(redirected))/float64(len(all)))
	t.put("cluster.replicated_records_per_job", "count", delta["mrts_cluster_replicated_records_total"]/float64(len(all)))
	t.put("cluster.proxied_lookups_per_job", "count", delta["mrts_cluster_proxied_lookups_total"]/float64(len(all)))
	t.put("cluster.steals", "count", delta["mrts_cluster_steals_total"])
	return digests, nil
}

// jobSpans records each job's span with its submit, queue, run and
// poll-lag children. Queue and run come from the service's own
// timestamps (same host clock).
func (t *traced) jobSpans(parent int, kind string, outs []outcome) {
	for _, o := range outs {
		if o.status == nil {
			continue
		}
		jobID := kind + "/" + o.status.ID
		id := t.tr.record(parent, "job."+o.class, jobID, o.t0, o.tSeen)
		t.tr.record(id, "client.submit", jobID, o.t0, o.tSubmitted)
		created, started, finished := stamp(o.status.Created), stamp(o.status.Started), stamp(o.status.Finished)
		t.tr.record(id, "service.queue", jobID, created, started)
		t.tr.record(id, "service.run", jobID, started, finished)
		t.tr.record(id, "client.poll_lag", jobID, finished, o.tSeen)
	}
}

// heapAlloc reads the server's cumulative allocation (MemStats.TotalAlloc)
// from its pprof heap endpoint.
func (t *traced) heapAlloc(f *fleet) (uint64, error) {
	if f.pprof == "" {
		return 0, nil
	}
	resp, err := http.Get(f.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	ms, err := parseMemStats(string(b))
	if err != nil {
		return 0, err
	}
	return ms["TotalAlloc"], nil
}

func memberIndex(ids []string, id string) int {
	for i, v := range ids {
		if v == id {
			return i
		}
	}
	return 0
}

// stamp parses a JobStatus timestamp (zero time when absent).
func stamp(s string) time.Time {
	v, _ := time.Parse(time.RFC3339Nano, s)
	return v
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// medianOf is the median of f over the succeeded outcomes (0 if none).
func medianOf(outs []outcome, f func(outcome) float64) float64 {
	var v []float64
	for _, o := range outs {
		if o.ok {
			v = append(v, f(o))
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}
