package stats

import (
	"math"
	"testing"
)

func TestMomentsMatchesMeanStd(t *testing.T) {
	xs := []float64{3.1, -2.2, 7.7, 0, 4.25, 4.25, -9.5, 1e3}
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	wantMean, wantStd := MeanStd(xs)
	if math.Abs(m.Mean-wantMean) > 1e-12 {
		t.Errorf("Mean = %v, want %v", m.Mean, wantMean)
	}
	if math.Abs(m.Std()-wantStd) > 1e-9 {
		t.Errorf("Std = %v, want %v", m.Std(), wantStd)
	}
	if m.N != int64(len(xs)) {
		t.Errorf("N = %d, want %d", m.N, len(xs))
	}
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if m.Variance() != 0 || m.Std() != 0 || m.StdErr() != 0 || m.Mean != 0 {
		t.Errorf("empty accumulator not all-zero: %+v", m)
	}
	// Merging an empty accumulator in either direction is a no-op /
	// copy.
	var a Moments
	a.Add(2)
	a.Add(4)
	b := a
	b.Merge(Moments{})
	if b != a {
		t.Errorf("merge with empty changed accumulator: %+v != %+v", b, a)
	}
	var c Moments
	c.Merge(a)
	if c != a {
		t.Errorf("empty.Merge(a) = %+v, want %+v", c, a)
	}
}

func TestMomentsSingleObservation(t *testing.T) {
	var m Moments
	m.Add(5)
	if m.Mean != 5 || m.Variance() != 0 || m.StdErr() != 0 {
		t.Errorf("single observation: %+v", m)
	}
}

// stripe splits xs into w round-robin stripes, mirroring how build
// workers partition the chip range.
func stripe(xs []float64, w int) []Moments {
	parts := make([]Moments, w)
	for i, x := range xs {
		parts[i%w].Add(x)
	}
	return parts
}

// TestMomentsMergeWorkerCounts accumulates the same series under
// permuted worker counts and merge orders and checks every combined
// result agrees with the sequential accumulator to tight tolerance —
// the associativity/commutativity the lock-free estimate merge relies
// on.
func TestMomentsMergeWorkerCounts(t *testing.T) {
	rng := NewRNG(99)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Normal(100, 7)
	}
	var seq Moments
	for _, x := range xs {
		seq.Add(x)
	}
	for _, w := range []int{1, 2, 3, 4, 7, 8, 16, 33} {
		parts := stripe(xs, w)
		// Forward merge order.
		var fwd Moments
		for _, p := range parts {
			fwd.Merge(p)
		}
		// Reverse merge order (commutativity under reordering).
		var rev Moments
		for i := len(parts) - 1; i >= 0; i-- {
			rev.Merge(parts[i])
		}
		// Pairwise tree merge (associativity).
		tree := append([]Moments(nil), parts...)
		for len(tree) > 1 {
			var next []Moments
			for i := 0; i < len(tree); i += 2 {
				m := tree[i]
				if i+1 < len(tree) {
					m.Merge(tree[i+1])
				}
				next = append(next, m)
			}
			tree = next
		}
		for _, got := range []Moments{fwd, rev, tree[0]} {
			if got.N != seq.N {
				t.Fatalf("w=%d: N = %d, want %d", w, got.N, seq.N)
			}
			if math.Abs(got.Mean-seq.Mean) > 1e-9 {
				t.Errorf("w=%d: Mean = %v, want %v", w, got.Mean, seq.Mean)
			}
			if relDiff(got.M2, seq.M2) > 1e-9 {
				t.Errorf("w=%d: M2 = %v, want %v", w, got.M2, seq.M2)
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}

func TestTallyMergeExact(t *testing.T) {
	outcomes := make([]bool, 501)
	rng := NewRNG(7)
	for i := range outcomes {
		outcomes[i] = rng.Float64() < 0.17
	}
	var seq Tally
	for _, s := range outcomes {
		seq.Add(s)
	}
	for _, w := range []int{1, 2, 3, 5, 8, 13} {
		parts := make([]Tally, w)
		for i, s := range outcomes {
			parts[i%w].Add(s)
		}
		var fwd, rev Tally
		for _, p := range parts {
			fwd.Merge(p)
		}
		for i := len(parts) - 1; i >= 0; i-- {
			rev.Merge(parts[i])
		}
		if fwd != seq || rev != seq {
			t.Errorf("w=%d: merged tallies %+v / %+v, want %+v", w, fwd, rev, seq)
		}
	}
	var n Tally
	n.AddN(seq.K, seq.N)
	if n != seq {
		t.Errorf("AddN = %+v, want %+v", n, seq)
	}
}

func TestZForConfidence(t *testing.T) {
	cases := []struct{ conf, want float64 }{
		{0.6827, 1.0},
		{0.90, 1.6449},
		{0.95, 1.9600},
		{0.99, 2.5758},
	}
	for _, c := range cases {
		if got := ZForConfidence(c.conf); math.Abs(got-c.want) > 5e-4 {
			t.Errorf("ZForConfidence(%v) = %v, want %v", c.conf, got, c.want)
		}
	}
	if got := ZForConfidence(0); got != 0 {
		t.Errorf("ZForConfidence(0) = %v, want 0", got)
	}
	if got := ZForConfidence(1); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("ZForConfidence(1) = %v, want finite", got)
	}
	if got := ZForConfidence(-3); got != 0 {
		t.Errorf("ZForConfidence(-3) = %v, want 0", got)
	}
}

// TestWilsonIntervalEdges covers the regimes a streaming yield
// estimate passes through: empty, all-success (yield exactly 1),
// all-failure (yield exactly 0) and small N, where the normal
// approximation degenerates but Wilson must not.
func TestWilsonIntervalEdges(t *testing.T) {
	lo, hi := WilsonInterval(0, 0, 0.95)
	if lo != 0 || hi != 1 {
		t.Errorf("empty interval = [%v, %v], want [0, 1]", lo, hi)
	}

	// Yield exactly 1: interval must keep positive width below 1.
	lo, hi = WilsonInterval(50, 50, 0.95)
	if hi != 1 {
		t.Errorf("k=n: hi = %v, want 1", hi)
	}
	if lo >= 1 || lo <= 0 {
		t.Errorf("k=n: lo = %v, want in (0, 1)", lo)
	}

	// Yield exactly 0: mirror image.
	lo0, hi0 := WilsonInterval(0, 50, 0.95)
	if lo0 != 0 {
		t.Errorf("k=0: lo = %v, want 0", lo0)
	}
	if hi0 <= 0 || hi0 >= 1 {
		t.Errorf("k=0: hi = %v, want in (0, 1)", hi0)
	}
	// The k=0 and k=n intervals mirror each other.
	if math.Abs(hi0-(1-lo)) > 1e-12 {
		t.Errorf("mirror symmetry broken: k=0 hi %v vs 1-lo %v", hi0, 1-lo)
	}

	// Small N (< 30): interval is wide but proper, and contains p.
	lo, hi = WilsonInterval(3, 7, 0.95)
	p := 3.0 / 7.0
	if !(0 < lo && lo < p && p < hi && hi < 1) {
		t.Errorf("small-n interval [%v, %v] does not bracket %v properly", lo, hi, p)
	}
	if hi-lo < 0.3 {
		t.Errorf("small-n interval [%v, %v] implausibly narrow", lo, hi)
	}

	// Width shrinks as n grows at fixed p.
	_, hiSmall := WilsonInterval(10, 20, 0.95)
	loSmall, _ := WilsonInterval(10, 20, 0.95)
	loBig, hiBig := WilsonInterval(10000, 20000, 0.95)
	if hiBig-loBig >= hiSmall-loSmall {
		t.Errorf("interval did not shrink with n: %v vs %v", hiBig-loBig, hiSmall-loSmall)
	}

	// Higher confidence widens the interval.
	lo90, hi90 := WilsonInterval(40, 80, 0.90)
	lo99, hi99 := WilsonInterval(40, 80, 0.99)
	if hi99-lo99 <= hi90-lo90 {
		t.Errorf("99%% interval not wider than 90%%: %v vs %v", hi99-lo99, hi90-lo90)
	}
}

// normalInterval is the normal-approximation (Wald) confidence interval
// for a Bernoulli proportion with k successes in n trials, clamped to
// [0, 1]: the textbook comparison point for WilsonInterval. It
// degenerates to a zero-width interval at p = 0 and p = 1, which is why
// yield reporting uses WilsonInterval.
func normalInterval(k, n int64, conf float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	z := ZForConfidence(conf)
	half := z * math.Sqrt(p*(1-p)/float64(n))
	return clamp01(p - half), clamp01(p + half)
}

func TestNormalIntervalEdges(t *testing.T) {
	lo, hi := normalInterval(0, 0, 0.95)
	if lo != 0 || hi != 1 {
		t.Errorf("empty interval = [%v, %v], want [0, 1]", lo, hi)
	}
	// The Wald interval famously collapses at p = 0 and p = 1.
	lo, hi = normalInterval(50, 50, 0.95)
	if lo != 1 || hi != 1 {
		t.Errorf("k=n normal interval = [%v, %v], want degenerate [1, 1]", lo, hi)
	}
	lo, hi = normalInterval(0, 50, 0.95)
	if lo != 0 || hi != 0 {
		t.Errorf("k=0 normal interval = [%v, %v], want degenerate [0, 0]", lo, hi)
	}
	// Away from the edges it brackets p and stays in [0, 1].
	lo, hi = normalInterval(30, 100, 0.95)
	if !(0 <= lo && lo < 0.3 && 0.3 < hi && hi <= 1) {
		t.Errorf("normal interval [%v, %v] does not bracket 0.3", lo, hi)
	}
	// For moderate p and large n, Wilson and normal agree closely.
	wlo, whi := WilsonInterval(5000, 10000, 0.95)
	nlo, nhi := normalInterval(5000, 10000, 0.95)
	if math.Abs(wlo-nlo) > 1e-3 || math.Abs(whi-nhi) > 1e-3 {
		t.Errorf("Wilson [%v,%v] vs normal [%v,%v] diverge at large n", wlo, whi, nlo, nhi)
	}
}
