package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"mrts/internal/service/api"
	"mrts/internal/service/client"
)

// clients is the number of closed-loop callers, one per vCPU of the
// reference machine: each submits its next job only after the previous
// one is terminal, as mrts-submit and client.Run callers do.
const clients = 2

// polling is how a caller waits for its job: the delay before its first
// status poll, then the interval between polls.
type polling struct{ first, every time.Duration }

// latencyPoll is client.Run's pattern at a fixed 2 ms interval — poll at
// once, then every 2 ms. The traced run times latencies with it.
var latencyPoll = map[string]polling{
	classHit: {0, 2 * time.Millisecond}, classSim: {0, 2 * time.Millisecond}, classBuild: {0, 2 * time.Millisecond},
}

// costPoll is for the timed runs, whose bounded metrics are server CPU
// per job. Each status poll costs server CPU (on the cluster, a proxied
// lookup too), and at a 2 ms interval how many polls a job takes flips
// with the host's speed; polling first after about a job's usual
// completion time makes the count nearly fixed.
var costPoll = map[string]polling{
	classHit: {5 * time.Millisecond, 5 * time.Millisecond}, classSim: {10 * time.Millisecond, 10 * time.Millisecond},
	classBuild: {10 * time.Millisecond, 10 * time.Millisecond},
}

// retryPolicy bounds the callers' transient-failure retries.
var retryPolicy = client.RetryPolicy{MaxAttempts: 5, BaseDelay: 20 * time.Millisecond, MaxDelay: 500 * time.Millisecond}

// caller is the part of client.Client and client.Cluster the load uses.
type caller interface {
	Submit(ctx context.Context, spec api.JobSpec) (string, error)
	Wait(ctx context.Context, id string, interval time.Duration) (*api.JobStatus, error)
}

// tally counts one class's HTTP attempts that failed, by cause (each is
// retried while the retry budget lasts), and its status polls.
type tally struct {
	Retry429, Retry503, Retry5xx, RetryTransport int64
	Polls                                        int64
}

func (t *tally) add(o *tally) {
	t.Retry429 += o.Retry429
	t.Retry503 += o.Retry503
	t.Retry5xx += o.Retry5xx
	t.RetryTransport += o.RetryTransport
	t.Polls += o.Polls
}

func (t *tally) retries() int64 { return t.Retry429 + t.Retry503 + t.Retry5xx + t.RetryTransport }

// countingTransport tallies every HTTP attempt of one closed-loop caller
// into the tally of the job in flight. A caller runs one job at a time on
// one goroutine, so cur needs no lock.
type countingTransport struct {
	base  http.RoundTripper
	cur   *tally
	entry string // host the current job's submit first reached
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs" && req.Response == nil:
		t.entry = req.URL.Host
	case req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/jobs/"):
		t.cur.Polls++
	}
	resp, err := t.base.RoundTrip(req)
	switch {
	case err != nil:
		t.cur.RetryTransport++
	case resp.StatusCode == http.StatusTooManyRequests:
		t.cur.Retry429++
	case resp.StatusCode == http.StatusServiceUnavailable:
		t.cur.Retry503++
	case resp.StatusCode >= 500:
		t.cur.Retry5xx++
	}
	return resp, err
}

// loadClient is one closed-loop caller.
type loadClient struct {
	call  caller
	tr    *countingTransport
	tally map[string]*tally
	idle  *http.Transport
}

func newLoadClients(f *fleet) []*loadClient {
	out := make([]*loadClient, clients)
	for i := range out {
		base := &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
		tr := &countingTransport{base: base, cur: &tally{}}
		hc := &http.Client{Transport: tr, Timeout: time.Minute}
		lc := &loadClient{tr: tr, idle: base, tally: map[string]*tally{}}
		for _, c := range jobClasses {
			lc.tally[c] = &tally{}
		}
		if f.ring == nil {
			c := client.New(f.urls[0])
			c.HTTPClient, c.Retry = hc, retryPolicy
			lc.call = c
		} else {
			c := client.NewCluster(f.urls)
			c.HTTPClient, c.Retry = hc, retryPolicy
			lc.call = c
		}
		out[i] = lc
	}
	return out
}

func closeLoadClients(cs []*loadClient) {
	for _, c := range cs {
		c.idle.CloseIdleConnections()
	}
}

// outcome is one job as its caller saw it.
type outcome struct {
	class  string
	ok     bool
	err    string
	lat    float64 // submit to observed-terminal, ms (failedLatency if !ok)
	digest string
	entry  string // host the submit first reached
	// Wall-clock instants, for spans and the service's own timestamps.
	t0, tSubmitted, tSeen time.Time
	status                *api.JobStatus
}

// run submits j and waits for it to become terminal.
func (c *loadClient) run(ctx context.Context, j job, pl polling) outcome {
	c.tr.cur = c.tally[j.class]
	o := outcome{class: j.class, t0: time.Now()}
	id, err := c.call.Submit(ctx, j.spec)
	o.tSubmitted = time.Now()
	o.entry = c.tr.entry
	var st *api.JobStatus
	if err == nil {
		time.Sleep(pl.first)
		st, err = c.call.Wait(ctx, id, pl.every)
	}
	o.tSeen = time.Now()
	o.lat = float64(o.tSeen.Sub(o.t0).Nanoseconds()) / 1e6
	o.status = st
	switch {
	case err != nil:
		o.err = err.Error()
	case st.State != api.StateDone:
		o.err = fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Result == nil || st.Result.Report == nil:
		o.err = fmt.Sprintf("job %s has no report", st.ID)
	default:
		o.ok = true
		o.digest = reportDigest(st.Result.Report)
	}
	if !o.ok {
		o.lat = failedLatency
	}
	return o
}

// runJobs spreads jobs round-robin over the closed-loop callers and
// returns the outcomes in sequence order.
func runJobs(ctx context.Context, cs []*loadClient, jobs []job, poll map[string]polling) []outcome {
	out := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := ci; i < len(jobs); i += len(cs) {
				out[i] = c.run(ctx, jobs[i], poll[jobs[i].class])
			}
		}()
	}
	wg.Wait()
	return out
}

// phase is one class's job list of a round, run by every caller.
type phase struct {
	class string
	jobs  []job
	outs  []outcome
	wall  time.Duration
	cpu   time.Duration // server CPU time spent during the phase
	steal float64       // machine-wide share of CPU ticks the hypervisor stole
}

// round is a hit phase, a sim phase and a build phase, in that order.
type round []*phase

// roundJobs is the job list of each phase of round n.
func roundJobs(seed uint64, n int, set []api.JobSpec) [][]job {
	return [][]job{hitJobs(seed, n, set), simJobs(seed, n), buildJobs(seed, n)}
}

func runRound(ctx context.Context, f *fleet, cs []*loadClient, seed uint64, n int, set []api.JobSpec, poll map[string]polling) (round, error) {
	var r round
	for _, jobs := range roundJobs(seed, n, set) {
		p, err := runPhase(ctx, f, cs, jobs, poll)
		if err != nil {
			return nil, err
		}
		r = append(r, p)
	}
	return r, nil
}

// runPhase runs one class's jobs and the server CPU they cost.
func runPhase(ctx context.Context, f *fleet, cs []*loadClient, jobs []job, poll map[string]polling) (*phase, error) {
	cpu0, err := f.cpuTime()
	if err != nil {
		return nil, err
	}
	s0, t0, err := hostTicks()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p := &phase{class: jobs[0].class, jobs: jobs, outs: runJobs(ctx, cs, jobs, poll)}
	p.wall = time.Since(start)
	cpu1, err := f.cpuTime()
	if err != nil {
		return nil, err
	}
	s1, t1, err := hostTicks()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if t1 > t0 {
		p.steal = float64(s1-s0) / float64(t1-t0)
	}
	return p, nil
}

// warm submits every hit-set job once and returns each one's report
// digest: the reference every later hit must reproduce.
func warm(ctx context.Context, cs []*loadClient, set []api.JobSpec) (map[string]string, error) {
	jobs := make([]job, len(set))
	for i, s := range set {
		jobs[i] = job{classHit, s}
	}
	out := runJobs(ctx, cs, jobs, costPoll)
	digests := make(map[string]string, len(set))
	for i, o := range out {
		if !o.ok {
			return nil, fmt.Errorf("warm-up job %d: %s", i, o.err)
		}
		digests[specKey(set[i])] = o.digest
	}
	// Warm-up attempts are not part of any class's accounting.
	for _, c := range cs {
		c.tally[classHit] = &tally{}
	}
	return digests, nil
}
