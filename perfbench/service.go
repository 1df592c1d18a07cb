package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mrts/internal/service/api"
)

// setups is how many times a service run starts and warms a fresh server
// (or cluster); setup_s is their median. The last one serves the rounds.
const setups = 3

// minRounds is the least number of rounds a run makes; the server's peak
// RSS is read after exactly this many, so it does not grow with the
// number of rounds a fast host fits in.
const minRounds = 2

// oracleSample is how many jobs of each cold class a run re-evaluates
// in-process to check the served reports.
const oracleSample = 6

// servicePart is the service half of a timed run.
type servicePart struct {
	kind     string    // "serve" or "cluster"
	setupCPU []float64 // server CPU seconds of each set-up
	setupS   []float64 // wall seconds of each set-up
	rounds   []round
	rssMB    float64
	wrong    []string // reports that differ from the reference
	accounts map[string]*account
}

// account is one class's failure accounting.
type account struct {
	Attempted, Succeeded, Failed int64
	tally
}

// startFleet starts the kind's server side in dir.
func startFleet(bin, kind, dir string, withPprof bool) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if kind == "cluster" {
		return startCluster(bin, dir)
	}
	return startServe(bin, dir, withPprof)
}

// setUp starts a fresh fleet, waits until it is ready and warms the hit
// set. It returns the fleet, its callers and the hit reference digests.
func setUp(ctx context.Context, bin, kind, dir string, set []api.JobSpec, withPprof bool) (*fleet, []*loadClient, map[string]string, error) {
	f, err := startFleet(bin, kind, dir, withPprof)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := f.waitReady(ctx); err != nil {
		f.stop()
		return nil, nil, nil, err
	}
	cs := newLoadClients(f)
	ref, err := warm(ctx, cs, set)
	if err != nil {
		closeLoadClients(cs)
		f.stop()
		return nil, nil, nil, err
	}
	return f, cs, ref, nil
}

// runServicePart sets the kind up setups times, then runs n rounds
// (fewer, but at least minRounds, if limit passes first), then checks
// the reports.
func runServicePart(ctx context.Context, bin, work, kind string, seed uint64, n int, limit time.Duration) (*servicePart, error) {
	set := hitSet()
	sp := &servicePart{kind: kind}
	var (
		f   *fleet
		cs  []*loadClient
		ref map[string]string
		err error
	)
	for i := range setups {
		start := time.Now()
		f, cs, ref, err = setUp(ctx, bin, kind, filepath.Join(work, fmt.Sprintf("%s-%d", kind, i)), set, false)
		if err != nil {
			return nil, err
		}
		sp.setupS = append(sp.setupS, time.Since(start).Seconds())
		cpu, err := f.cpuTime()
		if err != nil {
			return nil, err
		}
		sp.setupCPU = append(sp.setupCPU, cpu.Seconds())
		if i < setups-1 {
			closeLoadClients(cs)
			f.stop()
		}
	}
	defer f.stop()
	defer closeLoadClients(cs)

	start := time.Now()
	for i := 0; i < n && (i < minRounds || time.Since(start) < limit); i++ {
		r, err := runRound(ctx, f, cs, seed, i, set, costPoll)
		if err != nil {
			return nil, err
		}
		sp.rounds = append(sp.rounds, r)
		if i+1 == minRounds {
			if sp.rssMB, err = f.rssMB(); err != nil {
				return nil, err
			}
		}
	}
	sp.account(cs)
	sp.checkHits(ref)
	return sp, sp.checkCold(ctx, newOracle())
}

// phases returns every phase of class c, over all rounds.
func (sp *servicePart) phases(c string) []*phase {
	var out []*phase
	for _, r := range sp.rounds {
		for _, p := range r {
			if p.class == c {
				out = append(out, p)
			}
		}
	}
	return out
}

// account totals each class's outcomes and HTTP tallies.
func (sp *servicePart) account(cs []*loadClient) {
	sp.accounts = map[string]*account{}
	for _, c := range jobClasses {
		a := &account{}
		for _, p := range sp.phases(c) {
			for _, o := range p.outs {
				a.Attempted++
				if o.ok {
					a.Succeeded++
				} else {
					a.Failed++
				}
			}
		}
		for _, cl := range cs {
			a.add(cl.tally[c])
		}
		sp.accounts[c] = a
	}
}

// checkHits compares every hit report with the digest warm-up produced
// for the same spec. A wrong report counts as a failed job, so it misses
// every latency limit.
func (sp *servicePart) checkHits(ref map[string]string) {
	for n, p := range sp.phases(classHit) {
		for i := range p.outs {
			o := &p.outs[i]
			if want := ref[specKey(p.jobs[i].spec)]; o.ok && o.digest != want {
				sp.wrong = append(sp.wrong, fmt.Sprintf("round %d hit job %d: report %s, warm-up gave %s", n, i, o.digest, want))
				sp.fail(o)
			}
		}
	}
}

// checkCold re-evaluates the first oracleSample sim and build jobs
// in-process and compares the reports byte for byte.
func (sp *servicePart) checkCold(ctx context.Context, orc *oracle) error {
	for _, c := range []string{classSim, classBuild} {
		p := sp.phases(c)[0]
		for i := range min(oracleSample, len(p.outs)) {
			o := &p.outs[i]
			if !o.ok {
				continue
			}
			want, err := orc.digest(ctx, p.jobs[i].spec)
			if err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			if o.digest != want {
				sp.wrong = append(sp.wrong, fmt.Sprintf("%s job %d: served report %s, in-process %s", c, i, o.digest, want))
				sp.fail(o)
			}
		}
	}
	return nil
}

// fail turns a succeeded outcome into a failed one.
func (sp *servicePart) fail(o *outcome) {
	o.ok, o.lat = false, failedLatency
	sp.accounts[o.class].Succeeded--
	sp.accounts[o.class].Failed++
}

// classStats pools one class's phases over every round: all its
// latencies, its jobs per second of phase time, the median over phases of
// server CPU ms per job, and the mean steal share of its phases.
func (sp *servicePart) classStats(c string) (lat []float64, perS, cpuMS, steal float64) {
	var wall time.Duration
	var cpu []float64
	ps := sp.phases(c)
	for _, p := range ps {
		for _, o := range p.outs {
			lat = append(lat, o.lat)
		}
		wall += p.wall
		cpu = append(cpu, ms(p.cpu)/float64(len(p.outs)))
		steal += p.steal / float64(len(ps))
	}
	return lat, float64(len(lat)) / wall.Seconds(), median(cpu), steal
}
