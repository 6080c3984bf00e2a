package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: summarize must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// The sweep workload gates the geometric mean of its shapes' p50s, so
// a change to any one shape moves it, however the shapes' latencies
// compare.
func TestGeoMeanMovesWithEveryShape(t *testing.T) {
	p50s := []float64{600, 100, 110}
	base := geoMean(p50s)
	if want := math.Cbrt(600 * 100 * 110); math.Abs(base-want) > 1e-9*want {
		t.Fatalf("geoMean = %g, want %g", base, want)
	}
	for i := range p50s {
		slower := append([]float64(nil), p50s...)
		slower[i] *= 1.3
		if got, want := geoMean(slower)/base, math.Cbrt(1.3); math.Abs(got-want) > 1e-9 {
			t.Errorf("shape %d 30%% slower moves the mean by %g, want %g", i, got, want)
		}
	}
	if !math.IsInf(geoMean([]float64{600, failedLatency, 110}), 1) {
		t.Error("a failed shape must fail the gated latency")
	}
}

func TestSummarizeTenBeyondFlag(t *testing.T) {
	for _, c := range []struct {
		n, p50, p95, beyond int
		flag                bool
	}{
		{100, 50, 95, 5, false},
		{199, 100, 190, 9, false},
		{200, 100, 190, 10, true},
		{1000, 500, 950, 50, true},
	} {
		l := summarize(seq(c.n))
		if l.Samples != c.n || l.P50 != float64(c.p50) || l.P95 != float64(c.p95) ||
			l.BeyondP95 != c.beyond || l.P95Has10 != c.flag {
			t.Errorf("summarize(1..%d) = %+v, want p50 %d p95 %d beyond %d flag %v",
				c.n, l, c.p50, c.p95, c.beyond, c.flag)
		}
	}
	// Ties at the p95 are not beyond it.
	l := summarize([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	if l.BeyondP95 != 0 || l.P95Has10 {
		t.Errorf("all-equal samples: %+v", l)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

// A refused, rejected or timed-out request counts as a failure and its
// latency sample misses every bound.
func TestFailureAccounting(t *testing.T) {
	defer func(d time.Duration) { requestTimeout = d }(requestTimeout)
	requestTimeout = 100 * time.Millisecond

	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer busy.Close()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
	}))
	defer slow.Close()
	refused := httptest.NewServer(http.NotFoundHandler())
	refused.Close()

	it := newStudyMix(1, 0, 100).next()
	rep := &report{}
	var lat []float64
	for name, base := range map[string]string{"429": busy.URL, "timeout": slow.URL, "refused": refused.URL} {
		sc := sendStudy(newClient(), base, it)
		if sc.Fail == "" {
			t.Errorf("%s: request passed its checks", name)
		}
		lat = append(lat, tally(rep, sc.Fail, sc.Reply.Latency))
	}
	lat = append(lat, tally(rep, "", 5*time.Millisecond))
	if rep.Failed != 3 {
		t.Errorf("failed = %d, want 3", rep.Failed)
	}
	l := summarize(lat)
	if !math.IsInf(l.P50, 1) || !math.IsInf(l.P95, 1) || l.FailedRuns != 3 {
		t.Errorf("failures must miss every latency bound: %+v", l)
	}
	// One failure in ten is the tail: the p95 misses, the p50 holds.
	lat = lat[:0]
	for i := 0; i < 9; i++ {
		lat = append(lat, 10)
	}
	l = summarize(append(lat, failedLatency))
	if l.P50 != 10 || !math.IsInf(l.P95, 1) || l.BeyondP95 != 0 {
		t.Errorf("one failure in 10: %+v", l)
	}
}

func TestStudyMixDeterministicAndRepeatsAnswered(t *testing.T) {
	a, b := newStudyMix(7, 1, 2000), newStudyMix(7, 1, 2000)
	seen := map[string]bool{}
	repeats := 0
	for i := 0; i < 500; i++ {
		x, y := a.next(), b.next()
		if string(x.Body) != string(y.Body) || x.Repeat != y.Repeat {
			t.Fatalf("request %d differs between two mixes of one seed", i)
		}
		if x.Repeat {
			repeats++
			if !seen[string(x.Body)] {
				t.Fatalf("request %d repeats a body this client never sent", i)
			}
		} else if seen[string(x.Body)] {
			t.Fatalf("request %d: a cold body was sent twice", i)
		}
		seen[string(x.Body)] = true
	}
	if repeats != 500*repeatsPerBlock/mixBlock {
		t.Errorf("%d repeats in 500 requests, want 150", repeats)
	}
}
