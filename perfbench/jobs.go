package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand/v2"

	"mrts/internal/arch"
	"mrts/internal/exp"
	"mrts/internal/service/api"
	"mrts/internal/sim"
	"mrts/internal/workload"
)

// Job classes of the service workloads. They are timed and reported
// apart because their latencies differ by an order of magnitude.
const (
	classHit   = "hit"   // a point the server has already cached
	classSim   = "sim"   // a new faulted point on the warm workload
	classBuild = "build" // a new 2-frame workload: build plus simulation
)

var jobClasses = []string{classHit, classSim, classBuild}

// Job counts of one service round: whole cycles over each phase's point
// set (76 hit and build points, 64 sim points). A run makes at least
// minRounds rounds, so each class has at least minTail samples beyond p90.
const (
	hitPerRound = 6 * 76
	simPerRound = 2 * 64
	bldPerRound = 76
	buildFrames = 2
)

// Policies the service jobs draw from (the Fig. 8 comparison set).
var jobPolicies = []string{"mrts", "rispp", "morpheus", "offline"}

type job struct {
	class string
	spec  api.JobSpec
}

// warmWorkload is the workload mrts-sweep builds by default (16 frames,
// video seed 1, scene cuts at a third and two thirds): the hit and sim
// jobs run on it. Its video seed stays fixed because the work a video
// makes varies with its seed — 172,870 to 247,077 kernel executions for
// seeds 1 to 10 — which would let the seed, not the code, set the cost
// of a sim job.
var warmWorkload = api.WorkloadSpec{Frames: 16, Seed: defaultSeed, SceneCuts: []int{16 / 3, 2 * 16 / 3}}

// stream is the random source of one part of a seed's job sequence; tag
// keeps the parts independent of each other.
func stream(seed, tag uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, tag))
}

// hitSet is the points warmed during set-up and replayed by every hit
// phase: every (fabric, policy) point of the Fig. 8 grid on the warm
// workload.
func hitSet() []api.JobSpec {
	all := points(exp.Combos(4, 3, false))
	for i := range all {
		all[i].Workload = warmWorkload
	}
	return all
}

// Each phase cycles through its point set in a seeded order, so every
// round and every seed runs the same mix of fabrics and policies (their
// costs differ up to twofold) and only the order and the fresh seeds vary.

// hitJobs is the hit phase of round: hitPerRound jobs over set.
func hitJobs(seed uint64, round int, set []api.JobSpec) []job {
	perm := stream(seed, 2<<32|uint64(round)).Perm(len(set))
	jobs := make([]job, hitPerRound)
	for i := range jobs {
		jobs[i] = job{classHit, set[perm[i%len(set)]]}
	}
	return jobs
}

// points is every (fabric, policy) pair over cfgs.
func points(cfgs []arch.Config) []api.JobSpec {
	var out []api.JobSpec
	for _, cfg := range cfgs {
		for _, p := range jobPolicies {
			out = append(out, api.JobSpec{Type: api.JobSim, PRC: cfg.NPRC, CG: cfg.NCG, Policy: p})
		}
	}
	return out
}

// simJobs is the sim phase of round: simPerRound new faulted points on
// the warm workload, over every fabric with a PRC for the scenario to
// flap. Every job carries a fresh fault seed, so none is a result-cache
// hit.
func simJobs(seed uint64, round int) []job {
	var cfgs []arch.Config
	for _, c := range exp.Combos(4, 3, false) {
		if c.NPRC > 0 {
			cfgs = append(cfgs, c)
		}
	}
	pts := points(cfgs)
	r := stream(seed, 3<<32|uint64(round))
	perm := r.Perm(len(pts))
	jobs := make([]job, simPerRound)
	for i := range jobs {
		spec := pts[perm[i%len(pts)]]
		spec.Workload = warmWorkload
		spec.Faults = &api.FaultSpec{Seed: freshSeed(r), FlapPRC: 1, CorruptFG: 1}
		jobs[i] = job{classSim, spec}
	}
	return jobs
}

// buildJobs is the build phase of round: bldPerRound points on new
// 2-frame workloads (a fresh video seed each), so each job builds its
// workload before it simulates.
func buildJobs(seed uint64, round int) []job {
	pts := points(exp.Combos(4, 3, false))
	r := stream(seed, 4<<32|uint64(round))
	perm := r.Perm(len(pts))
	jobs := make([]job, bldPerRound)
	for i := range jobs {
		spec := pts[perm[i%len(pts)]]
		spec.Workload = api.WorkloadSpec{Frames: buildFrames, Seed: freshSeed(r)}
		jobs[i] = job{classBuild, spec}
	}
	return jobs
}

// freshSeed draws a non-zero seed (zero selects a default).
func freshSeed(r *rand.Rand) uint64 { return r.Uint64()>>1 | 1 }

// specKey identifies a spec by its JSON encoding.
func specKey(s api.JobSpec) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// reportDigest hashes the canonical indented encoding of a job's report.
func reportDigest(r *api.Report) string {
	b, err := api.MarshalIndentReport(r)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digest(b)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// oracle evaluates sim jobs in-process the way the server does — a
// fault-free RISC reference, the point with the spec's fault scenario, the
// flat report — so a served report can be checked byte for byte.
type oracle struct {
	workloads map[string]*workload.Result
}

func newOracle() *oracle { return &oracle{workloads: map[string]*workload.Result{}} }

func (o *oracle) digest(ctx context.Context, spec api.JobSpec) (string, error) {
	key := specKey(api.JobSpec{Workload: spec.Workload})
	w := o.workloads[key]
	if w == nil {
		var err error
		if w, err = workload.Build(spec.Workload.Options()); err != nil {
			return "", err
		}
		o.workloads[key] = w
	}
	ref, err := exp.RunPoint(ctx, w, arch.Config{}, exp.PolicyRISC)
	if err != nil {
		return "", err
	}
	p, err := spec.SimPolicy()
	if err != nil {
		return "", err
	}
	var seed uint64
	fo := spec.Faults.Options()
	if !spec.Faults.IsZero() {
		seed = spec.Faults.Seed
		if fo.Horizon == 0 {
			fo.Horizon = ref.TotalCycles / 10
		}
	}
	var rep *sim.Report
	if rep, err = exp.RunPointFaults(ctx, w, arch.Config{NPRC: spec.PRC, NCG: spec.CG}, p, seed, fo); err != nil {
		return "", err
	}
	r := api.NewReport(rep, ref)
	return reportDigest(&r), nil
}
