package core

import (
	"math"
	"time"

	"yieldcache/internal/obs"
	"yieldcache/internal/stats"
)

// EstimateConfig arms streaming yield estimation on a population
// build: while workers measure chips, the build periodically publishes
// a YieldEstimate snapshot — live yield with a Wilson confidence
// interval, per-loss-reason shares with their own intervals, and
// latency/leakage moments — computed over the consistent prefix of
// chips measured so far. With TargetCIWidth set it also turns the
// estimate into a stopping rule: once the yield interval's half-width
// reaches the target, the build stops sampling at the next batch
// boundary and returns the truncated (fully measured, batch-aligned)
// population. Nil adds nothing to the build's hot loop.
type EstimateConfig struct {
	// Interval is the minimum time between snapshots; zero or negative
	// defaults to 250ms.
	Interval time.Duration
	// Constraints selects the yield requirement the estimate classifies
	// against. Snapshots derive *provisional* limits from the measured
	// prefix with exactly the DeriveLimits arithmetic, so the final
	// snapshot (prefix = whole population) reproduces the table limits
	// bit for bit.
	Constraints Constraints
	// Confidence is the two-sided confidence level of every interval;
	// zero defaults to 0.95.
	Confidence float64
	// TargetCIWidth, when positive, enables precision-targeted
	// stopping: the build stops early once the yield interval's
	// half-width is <= TargetCIWidth (and at least MinChips are
	// measured). Zero disables stopping; snapshots still stream.
	TargetCIWidth float64
	// MinChips is the floor below which the stopping rule never fires,
	// guarding against lucky early streaks; zero defaults to 128.
	MinChips int
	// Sink receives each snapshot, including a final one published
	// after the build completes (EarlyStop reports whether the
	// precision target cut it short). The pointed-to estimate is a
	// reusable buffer: the Sink must copy what it keeps and must not
	// retain the pointer.
	Sink func(*YieldEstimate)
}

// fill applies the documented defaults in place.
func (c *EstimateConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = 0.95
	}
	if c.MinChips <= 0 {
		c.MinChips = 128
	}
}

// ReasonEstimate is one loss reason's share of the measured prefix
// with its Wilson confidence interval — a live, error-barred row of
// Table 2.
type ReasonEstimate struct {
	Reason LossReason
	Lost   int64   // chips lost to this reason in the prefix
	Share  float64 // Lost / Chips
	CILow  float64
	CIHigh float64
}

// YieldEstimate is one streaming snapshot of a build's statistical
// state: the parametric yield of the first Chips measured chips under
// provisional limits derived from that same prefix, with Wilson
// confidence intervals on the yield and on every loss reason's share,
// plus latency/leakage moments. Snapshots are published into a
// reusable buffer (see EstimateConfig.Sink); all fields are plain
// values so a shallow copy detaches a snapshot from the buffer.
type YieldEstimate struct {
	Chips      int     // measured prefix size the estimate covers
	Total      int     // full requested population size
	Confidence float64 // two-sided confidence level of the intervals

	Yield     float64 // passing fraction of the prefix
	Lost      int64   // chips lost in the prefix
	CILow     float64 // Wilson lower bound on Yield
	CIHigh    float64 // Wilson upper bound on Yield
	HalfWidth float64 // (CIHigh - CILow) / 2, the stopping-rule metric

	// Limits are the provisional pass/fail thresholds derived from the
	// prefix; at Chips == Total they equal DeriveLimits exactly.
	Limits Limits

	MeanLatencyPS   float64
	StdErrLatencyPS float64
	MeanLeakageW    float64
	StdErrLeakageW  float64

	// Reasons holds the per-loss-reason breakdown in table order
	// (LossReasons order: leakage, then delay by way count).
	Reasons [NumLossReasons]ReasonEstimate

	// EarlyStop is set on the final snapshot when the precision target
	// stopped the build before the full population.
	EarlyStop bool
}

// estimator is the publisher's estimate subscriber. Each snapshot is
// a sequential scan of the consistent prefix [0, P) rather than a merge
// of per-worker floating-point partials: per-chip classification needs
// limits, limits need the whole prefix's moments, and a sequential scan
// in chip order makes every published number a pure function of P.
// That is what keeps estimates bit-identical across worker counts (the
// per-worker state that *is* merged lock-free — the frontier min — is
// an integer, so merge order cannot matter). The scan is O(P) but runs
// at most once per Interval; at the default 250ms it costs well under a
// millisecond per publish at paper-scale populations.
type estimator struct {
	interval int64 // nanoseconds between snapshots; 0 when not armed
	last     int   // prefix of the last published snapshot
	cfg      EstimateConfig
	stopAt   int // decision frontier at which the stopping rule fired
	buf      YieldEstimate
	reg      []Chip
}

// publish computes a snapshot over the prefix [0, p), hands it to the
// Sink and evaluates the stopping rule, reporting whether it fired.
func (e *estimator) publish(p int) bool {
	e.snapshot(p)
	e.last = p
	obs.C("core_estimates_published_total").Inc()
	if e.cfg.Sink != nil {
		e.cfg.Sink(&e.buf)
	}
	if e.cfg.TargetCIWidth > 0 && p >= e.cfg.MinChips && p < len(e.reg) &&
		e.buf.HalfWidth <= e.cfg.TargetCIWidth {
		e.stopAt = p
		return true
	}
	return false
}

// snapshot fills the reusable buffer with the estimate over the
// immutable prefix [0, p). Pass 1 accumulates the latency/leakage
// moments and derives provisional limits with exactly the arithmetic
// of stats.MeanStd + DeriveLimits (naive sum / sum-of-squares in chip
// order), so the p == n snapshot reproduces the table limits bit for
// bit; pass 2 classifies each chip under those limits. It allocates
// nothing.
func (e *estimator) snapshot(p int) {
	var s, ss, leakSum float64
	var latM, leakM stats.Moments
	for i := 0; i < p; i++ {
		m := &e.reg[i].Meas
		s += m.LatencyPS
		ss += m.LatencyPS * m.LatencyPS
		leakSum += m.LeakageW
		latM.Add(m.LatencyPS)
		leakM.Add(m.LeakageW)
	}
	n := float64(p)
	mean := s / n
	v := ss/n - mean*mean
	if v < 0 {
		v = 0
	}
	lim := Limits{
		DelayPS:  mean + e.cfg.Constraints.DelaySigmaK*math.Sqrt(v),
		LeakageW: e.cfg.Constraints.LeakageMult * (leakSum / n),
	}

	var pass stats.Tally
	var lost [NumLossReasons]int64
	for i := 0; i < p; i++ {
		r := Classify(e.reg[i].Meas, lim)
		pass.Add(r == LossNone)
		if r != LossNone {
			lost[int(r-LossLeakage)]++
		}
	}

	b := &e.buf
	b.Chips = p
	b.Total = len(e.reg)
	b.Confidence = e.cfg.Confidence
	b.Yield = pass.Rate()
	b.Lost = pass.N - pass.K
	b.CILow, b.CIHigh = stats.WilsonInterval(pass.K, pass.N, b.Confidence)
	b.HalfWidth = (b.CIHigh - b.CILow) / 2
	b.Limits = lim
	b.MeanLatencyPS = latM.Mean
	b.StdErrLatencyPS = latM.StdErr()
	b.MeanLeakageW = leakM.Mean
	b.StdErrLeakageW = leakM.StdErr()
	b.EarlyStop = false
	for j := range b.Reasons {
		t := stats.Tally{K: lost[j], N: int64(p)}
		re := &b.Reasons[j]
		re.Reason = LossLeakage + LossReason(j)
		re.Lost = t.K
		re.Share = t.Rate()
		re.CILow, re.CIHigh = stats.WilsonInterval(t.K, t.N, b.Confidence)
	}
}
