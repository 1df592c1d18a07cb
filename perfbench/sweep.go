package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// defaultSeed is the seed whose figure outputs are committed in
// digests.json: mrts-sweep's own default (-seed 1 -faultseed 1).
const defaultSeed = 1

//go:embed digests.json
var committedDigests []byte

// invocation is one mrts-sweep command line of a sweep unit.
type invocation struct {
	fig string
	// canonical marks the figure's default-seed inputs, whose output
	// digest is committed in digests.json.
	canonical bool
	args      []string
}

// sweepUnit lists the invocations of one unit of fixed sweep work:
// "figs" is every paper figure (-fig all, then mix, faults and tenants),
// "phase" the phased-workload predictor sweep, all at -workers 1. The
// run's seed drives the fault schedule of the faults figure; the video
// and phased generator seeds stay at their defaults, because the work
// they make varies with the seed (a 16-frame video gives 172,870 to
// 247,077 kernel executions over seeds 1 to 10, and the phase sweep
// takes 4.6 s to 10.6 s), which would swamp any change to the code.
func sweepUnit(kind string, seed uint64) []invocation {
	if kind == "phase" {
		return []invocation{{"phase", true, []string{"-fig", "phase", "-workers", "1"}}}
	}
	var out []invocation
	for _, f := range []string{"all", "mix", "faults", "tenants"} {
		inv := invocation{f, true, []string{"-fig", f, "-workers", "1"}}
		if f == "faults" {
			inv.canonical = seed == defaultSeed
			inv.args = append(inv.args, "-faultseed", strconv.FormatUint(seed, 10))
		}
		out = append(out, inv)
	}
	return out
}

// sweepRun is the outcome of one mrts-sweep invocation.
type sweepRun struct {
	fig    string
	wall   time.Duration
	cpu    time.Duration // user+system CPU time
	rssKB  int64
	digest string // of stdout
}

// runSweep runs one invocation; extra flags (e.g. -cpuprofile) are
// appended.
func runSweep(bin string, inv invocation, extra ...string) (sweepRun, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, "mrts-sweep"), append(append([]string{}, inv.args...), extra...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	r := sweepRun{fig: inv.fig, wall: time.Since(start)}
	if err != nil {
		return r, fmt.Errorf("mrts-sweep -fig %s: %v: %s", inv.fig, err, bytes.TrimSpace(stderr.Bytes()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssKB = ru.Maxrss
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	sum := sha256.Sum256(stdout.Bytes())
	r.digest = hex.EncodeToString(sum[:12])
	return r, nil
}

// sweepPart is the sweep half of a timed run.
type sweepPart struct {
	units   [][]sweepRun
	digests map[string]string // fig -> stdout digest of the first unit
	wrong   []string          // digest mismatches
}

// runSweepPart runs the unit n times (fewer, but at least once, if limit
// passes first), checking each unit's outputs against the first and
// those of default-seed inputs against the committed digests.
func runSweepPart(bin, kind string, seed uint64, n int, limit time.Duration) (*sweepPart, error) {
	var want map[string]string
	if err := json.Unmarshal(committedDigests, &want); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	sp := &sweepPart{digests: map[string]string{}}
	start := time.Now()
	for len(sp.units) < n && (len(sp.units) == 0 || time.Since(start) < limit) {
		var unit []sweepRun
		for _, inv := range sweepUnit(kind, seed) {
			r, err := runSweep(bin, inv)
			if err != nil {
				return nil, err
			}
			if len(sp.units) == 0 {
				sp.digests[r.fig] = r.digest
				if w := want[r.fig]; inv.canonical && w != r.digest {
					sp.wrong = append(sp.wrong, fmt.Sprintf("-fig %s: stdout digest %s, committed %s", r.fig, r.digest, w))
				}
			} else if r.digest != sp.digests[r.fig] {
				sp.wrong = append(sp.wrong, fmt.Sprintf("-fig %s: stdout digest %s differs from the run's first %s", r.fig, r.digest, sp.digests[r.fig]))
			}
			unit = append(unit, r)
		}
		sp.units = append(sp.units, unit)
	}
	return sp, nil
}

// unitWall is a unit's total elapsed time.
func unitWall(u []sweepRun) time.Duration {
	var d time.Duration
	for _, r := range u {
		d += r.wall
	}
	return d
}

// cpuS is the median unit CPU time in seconds.
func (sp *sweepPart) cpuS() float64 {
	v := make([]float64, len(sp.units))
	for i, u := range sp.units {
		for _, r := range u {
			v[i] += r.cpu.Seconds()
		}
	}
	return median(v)
}

// rssMB is the median over units of the largest invocation peak RSS.
func (sp *sweepPart) rssMB() float64 {
	v := make([]float64, len(sp.units))
	for i, u := range sp.units {
		for _, r := range u {
			v[i] = max(v[i], float64(r.rssKB)/1024)
		}
	}
	return median(v)
}
