package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the least number of samples that must lie beyond a reported
// percentile: a p90 read off fewer tail samples moves with one outlier.
const minTail = 10

// failedLatency stands in for the latency of a job that failed or returned
// a wrong result: such a job misses every latency limit, so it sorts above
// every real sample.
var failedLatency = math.Inf(1)

// dist summarises one latency class of a run.
type dist struct {
	N   int     // samples, failed jobs included
	P50 float64 // median
	P90 float64 // 90th percentile
	// Tail is the number of samples strictly above the P90 rank.
	Tail int
}

// rank returns the nearest-rank q-quantile of sorted (0 < q <= 1).
func rank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailCount is how many of n samples lie beyond the nearest-rank
// q-quantile.
func tailCount(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// summarize computes the median and p90 of samples. It refuses a p90 with
// fewer than minTail samples beyond it, so a run too short to support the
// percentile fails loudly instead of reporting noise.
func summarize(samples []float64) (dist, error) {
	n := len(samples)
	if n == 0 {
		return dist{}, fmt.Errorf("no samples")
	}
	if t := tailCount(n, 0.9); t < minTail {
		return dist{}, fmt.Errorf("%d samples leave %d beyond p90 (need %d)", n, t, minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{N: n, P50: rank(s, 0.5), P90: rank(s, 0.9), Tail: tailCount(n, 0.9)}, nil
}

// highestPercentile names the highest of p90, p99 and p99.9 that n
// samples support with minTail samples beyond it ("" when none does).
func highestPercentile(n int) string {
	best := ""
	for _, p := range []struct {
		name string
		q    float64
	}{{"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}} {
		if tailCount(n, p.q) >= minTail {
			best = p.name
		}
	}
	return best
}

// median of a non-empty slice (mean of the middle pair for even lengths).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// finite maps the failed-job sentinel to a large finite number so the
// result stays encodable as JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e12
	}
	return v
}
