package main

import (
	"math"
	"sort"
)

// failedLatency is the latency recorded for a request that failed, was
// refused or timed out: it sorts after every real sample, so a failure
// misses every latency bound and pushes every percentile up.
var failedLatency = math.Inf(1)

// latency summarises one class of timed samples the way every timing is
// reported: the sample count, the median, the p95, how many samples lie
// strictly beyond the p95, and whether that is at least ten (below ten
// the p95 is too thin to read as a tail).
type latency struct {
	Samples    int     `json:"samples"`
	P50        float64 `json:"p50"`
	P95        float64 `json:"p95"`
	BeyondP95  int     `json:"beyond_p95"`
	P95Has10   bool    `json:"p95_has_10_beyond"`
	FailedRuns int     `json:"failed"`
}

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples
// at or below it. It returns NaN for no samples.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1]
}

// summarize builds the latency summary of xs; failures are samples equal
// to failedLatency.
func summarize(xs []float64) latency {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	l := latency{Samples: len(s), P50: percentile(s, 0.5), P95: percentile(s, 0.95)}
	for _, x := range s {
		if x > l.P95 {
			l.BeyondP95++
		}
		if x == failedLatency {
			l.FailedRuns++
		}
	}
	l.P95Has10 = l.BeyondP95 >= 10
	return l
}

// median returns the midpoint median of xs (the mean of the two middle
// samples for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geoMean returns the geometric mean of xs; it is +Inf when any sample
// is failedLatency.
func geoMean(xs []float64) float64 {
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}
