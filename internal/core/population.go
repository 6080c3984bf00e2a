package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"yieldcache/internal/circuit"
	"yieldcache/internal/obs"
	"yieldcache/internal/sram"
	"yieldcache/internal/variation"
)

// PaperPopulationSize is the number of Monte Carlo chips the paper
// simulates (Section 5.1).
const PaperPopulationSize = 2000

// Chip is one simulated die: its id within the population and its
// evaluated cache.
type Chip struct {
	ID   int
	Meas sram.CacheMeasurement
}

// Population is a Monte Carlo sample of chips evaluated on one cache
// organisation.
type Population struct {
	Chips []Chip
	Model *sram.Model
	Seed  int64

	// Derived columns, computed once on first use. The returned slices
	// are shared: callers must treat them as read-only.
	colOnce sync.Once
	lats    []float64
	leaks   []float64
	leakAvg float64
}

// Organisation selects the cache organisation(s) a build measures.
type Organisation uint8

const (
	// OrgPair measures the regular and the H-YAPD organisation from one
	// set of variation draws — the paper's "same process variation
	// parameters" (Section 5.1) by construction, at one sampling cost.
	// It is the zero value.
	OrgPair Organisation = iota
	// OrgRegular measures the regular organisation only.
	OrgRegular
)

// PopulationConfig parameterises Build.
type PopulationConfig struct {
	N       int          // number of chips; 0 means PaperPopulationSize
	Seed    int64        // master seed of the variation sampler
	Org     Organisation // organisation(s) to measure; zero is OrgPair
	Workers int          // parallel evaluation workers; 0 means GOMAXPROCS
	Tech    *circuit.Tech
	Spec    *variation.Spec
	Fact    *variation.Factors
	// Geom overrides the cache geometry; nil (the default) keeps the
	// paper's 16 KB organisation (sram.Paper16KB). Ways must stay within
	// the 2×2 variation mesh (1..4) — geometry sweeps are validated by
	// PlanSweep; direct callers own that invariant.
	Geom *sram.Geometry
	// Checkpoint enables periodic build checkpointing and crash resume;
	// nil (the default) adds nothing to the hot loop.
	Checkpoint *CheckpointConfig
	// Estimate arms streaming yield estimation (live confidence
	// intervals and, optionally, precision-targeted stopping); nil (the
	// default) adds nothing to the hot loop.
	Estimate *EstimateConfig
}

func (c *PopulationConfig) fill() {
	if c.N == 0 {
		c.N = PaperPopulationSize
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.N {
		c.Workers = c.N
	}
	if c.Tech == nil {
		t := circuit.PTM45()
		c.Tech = &t
	}
	if c.Spec == nil {
		s := variation.Nassif45nm()
		c.Spec = &s
	}
	if c.Fact == nil {
		f := variation.PaperFactors()
		c.Fact = &f
	}
}

// BuildResult is what Build returns. Regular holds the regular
// organisation's population and Horizontal the H-YAPD one, nil unless
// the build measured the pair. Estimate is the final
// streaming yield estimate, nil unless cfg.Estimate armed estimation.
// When its EarlyStop field is set, the populations are truncated to
// the (batch-aligned, fully measured) prefix at which the precision
// target was met, and every chip in them is bit-identical to the same
// chip of an untruncated build.
type BuildResult struct {
	Regular    *Population
	Horizontal *Population
	Estimate   *YieldEstimate
}

// Build samples and evaluates a chip population on the organisation(s)
// cfg.Org selects. Chip i is a pure function of (Seed, i), so every
// organisation built from the same seed sees identical process
// variation draws — the paper's "we have applied the same process
// variation parameters used in the previous simulations" — and the
// result is independent of the worker count, the batch packing and any
// resume point. The build stops early, returning ctx.Err(), when ctx
// is cancelled or its deadline passes.
//
// Each worker owns a variation scratch, a measurement evaluator and a
// stripe of the chip arena, evaluated through the structure-of-arrays
// batch kernel sram.BatchWidth chips at a time, so the hot loop
// performs no heap allocation: way/bank/path measurement storage comes
// from flat arrays sliced up front and draw/factor columns live in the
// evaluator. Cancellation is polled once per batch through an atomic
// flag (watchCancel). After each batch the worker makes one call into
// the build's prefix-frontier publisher, which advances the obs.Scope
// progress counter (the yieldd per-job path; spans land on the scope's
// tracer too) and feeds the checkpoint and estimate subscribers when
// they are armed.
func Build(ctx context.Context, cfg PopulationConfig) (BuildResult, error) {
	cfg.fill()
	pair := cfg.Org == OrgPair
	spanName := "build_population"
	if pair {
		spanName = "build_population/pair"
	}
	scope := obs.ScopeFrom(ctx)
	scope.SetProgressTotal(int64(cfg.N))
	ctx, sp := obs.StartSpan(ctx, spanName)
	defer sp.End()
	begin := time.Now()

	model, horModel := newModels(*cfg.Tech, cfg.Geom)
	sampler := variation.NewSampler(*cfg.Spec, *cfg.Fact, cfg.Seed)
	geom := model.Geom

	// Started before the arenas so that their setup loops (millions of
	// slice-header writes for large N) can poll it too.
	cancelled, stopWatch := watchCancel(ctx)
	defer stopWatch()

	chips := newChipArena(cfg.N, geom, cancelled)
	var horChips []Chip
	if pair {
		horChips = newChipArena(cfg.N, geom, cancelled)
	}
	if cancelled.Load() {
		obs.C("core_population_builds_cancelled_total").Inc()
		return BuildResult{}, ctx.Err()
	}

	// Resume: seed the arena with a checkpointed prefix. Chip i is a
	// pure function of (Seed, i), so measurement restarting at base
	// yields chips bit-identical to an uninterrupted run.
	base := 0
	if cfg.Checkpoint != nil && cfg.Checkpoint.Resume != nil {
		r := cfg.Checkpoint.Resume
		if err := validateResume(r, &cfg, pair, geom); err != nil {
			return BuildResult{}, err
		}
		for i := 0; i < r.Done; i++ {
			chips[i].Meas.CopyFrom(&r.Regular[i].Meas)
			if pair {
				horChips[i].Meas.CopyFrom(&r.Horizontal[i].Meas)
			}
		}
		base = r.Done
		scope.AddProgress(int64(base))
		obs.C("core_builds_resumed_total").Inc()
	}

	workers := cfg.Workers
	pub := newPublisher(&cfg, base, pair, geom, chips, horChips)
	workerSec := obs.H("core_population_worker_seconds", obs.ExpBuckets(1e-4, 4, 10))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w, start int) {
			defer wg.Done()
			ws := sp.Worker("measure_chips")
			t0 := time.Now()
			ev := model.NewEvaluator(sampler.NewScratch())
			defer ev.Release()
			// The worker walks its stripe (start, start+W, …) in batches
			// of up to sram.BatchWidth chips through the SoA kernel.
			// Chip values are a pure function of (Seed, id), so the
			// batching — like the striping — cannot change any result.
			// Cancellation is polled and the frontier is published at
			// batch boundaries only, keeping the frontier batch-aligned:
			// a published prefix never splits a batch.
			var ids [sram.BatchWidth]int
			var regV, horV [sram.BatchWidth]*sram.CacheMeasurement
			for i := start; i < cfg.N; {
				if cancelled.Load() || pub.stopped() {
					break
				}
				bn, last := 0, i
				for ; bn < sram.BatchWidth && i < cfg.N; i += workers {
					ids[bn] = i
					regV[bn] = &chips[i].Meas
					if pair {
						horV[bn] = &horChips[i].Meas
					}
					last = i
					bn++
				}
				if pair {
					ev.MeasurePairBatch(ids[:bn], regV[:bn], horV[:bn])
				} else {
					ev.MeasureBatch(ids[:bn], regV[:bn])
				}
				pub.advance(scope, w, last, bn)
			}
			workerSec.Observe(time.Since(t0).Seconds())
			ws.End()
		}(w, base+w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		obs.C("core_population_builds_cancelled_total").Inc()
		return BuildResult{}, err
	}

	// Precision-targeted stop: truncate to the exact batch-aligned
	// frontier at which the stopping rule fired, so the final
	// population — and every statistic derived from it — is the prefix
	// the decision was made on (final CI half-width <= target by
	// construction). Workers may have measured a few batches past the
	// frontier between the decision and their next poll; those chips
	// are discarded, keeping the result a pure function of the decision
	// frontier rather than of scheduling luck. The truncation happens
	// at the Population literals below rather than by reassigning
	// chips/horChips — a reassignment after the workers captured the
	// slices would force their headers onto the heap and cost the
	// disabled path an allocation.
	built, est := pub.finish(cfg.N)
	if built < cfg.N {
		done, _ := scope.Progress()
		scope.SetProgressTotal(done)
		obs.C("core_builds_early_stopped_total").Inc()
	}
	res := BuildResult{Estimate: est}

	measured := built
	if pair {
		measured *= 2
	}
	elapsed := time.Since(begin).Seconds()
	obs.C("core_chips_built_total").Add(int64(measured))
	obs.G("core_population_build_seconds").Set(elapsed)
	if elapsed > 0 {
		obs.G("core_population_chips_per_second").Set(float64(measured) / elapsed)
	}
	res.Regular = &Population{Chips: chips[:built], Model: model, Seed: cfg.Seed}
	if pair {
		res.Horizontal = &Population{Chips: horChips[:built], Model: horModel, Seed: cfg.Seed}
	}
	return res, nil
}

// BuildPopulationPair is Build of the pair organisation without
// cancellation, kept for callers that predate Build.
func BuildPopulationPair(cfg PopulationConfig) (regular, horizontal *Population) {
	cfg.Org = OrgPair
	res, _ := Build(context.Background(), cfg)
	return res.Regular, res.Horizontal
}

// watchCancel translates ctx cancellation into an atomic flag the batch
// loops can poll without touching the context. The returned stop func
// must be called to release the watcher goroutine; with no Done channel
// the flag is a shared never-set atomic and stop is a no-op.
func watchCancel(ctx context.Context) (*atomic.Bool, func()) {
	done := ctx.Done()
	if done == nil {
		return &neverCancelled, func() {}
	}
	var flag atomic.Bool
	stop := make(chan struct{})
	go func() {
		select {
		case <-done:
			flag.Store(true)
		case <-stop:
		}
	}()
	return &flag, func() { close(stop) }
}

var neverCancelled atomic.Bool

// newModels builds the regular and the H-YAPD sram.Model on tech and,
// when g is non-nil, replaces the default paper geometry. The
// measurement kernel is fully geometry-generic; only the variation mesh
// caps Ways at 4.
func newModels(tech circuit.Tech, g *sram.Geometry) (reg, hor *sram.Model) {
	reg = sram.NewModel(tech, false)
	if g != nil {
		reg.Geom = *g
	}
	h := *reg
	h.HYAPD = true
	return reg, &h
}

// newChipArena allocates a chip slice whose per-chip measurement slices
// all come from three flat backing arrays, pre-sized by sram.Prepare.
// Full-capacity slice expressions keep a chip's append (which never
// happens in practice) from bleeding into its neighbour. The setup loop
// polls cancelled periodically and returns the partially wired arena —
// the caller checks cancellation itself before using it.
func newChipArena(n int, g sram.Geometry, cancelled *atomic.Bool) []Chip {
	chips := make([]Chip, n)
	ways := make([]sram.WayMeasurement, n*g.Ways)
	banks := make([]sram.BankMeasurement, n*g.Ways*g.BanksPerWay)
	paths := make([]sram.PathMeasurement, n*g.Ways*g.BanksPerWay*g.PathsPerBank)
	for i := range chips {
		if i&4095 == 0 && cancelled.Load() {
			return chips
		}
		chips[i].ID = i
		chips[i].Meas.Ways = ways[i*g.Ways : (i+1)*g.Ways : (i+1)*g.Ways]
		for w := range chips[i].Meas.Ways {
			bo := (i*g.Ways + w) * g.BanksPerWay
			chips[i].Meas.Ways[w].Banks = banks[bo : bo+g.BanksPerWay : bo+g.BanksPerWay]
			for b := range chips[i].Meas.Ways[w].Banks {
				po := (bo + b) * g.PathsPerBank
				chips[i].Meas.Ways[w].Banks[b].Paths = paths[po : po+g.PathsPerBank : po+g.PathsPerBank]
			}
		}
	}
	return chips
}

// columns computes the latency and leakage columns once. Populations
// read from persisted files (or built by literal construction in tests)
// memoize lazily too, so the sync.Once lives on the Population itself.
func (p *Population) columns() {
	p.colOnce.Do(func() {
		p.lats = make([]float64, len(p.Chips))
		p.leaks = make([]float64, len(p.Chips))
		sum := 0.0
		for i := range p.Chips {
			p.lats[i] = p.Chips[i].Meas.LatencyPS
			p.leaks[i] = p.Chips[i].Meas.LeakageW
			sum += p.leaks[i]
		}
		if len(p.Chips) > 0 {
			p.leakAvg = sum / float64(len(p.Chips))
		}
	})
}

// Latencies returns the cache access latency of every chip. The slice
// is computed once and shared across calls: treat it as read-only.
func (p *Population) Latencies() []float64 {
	p.columns()
	return p.lats
}

// Leakages returns the total cache leakage of every chip. The slice is
// computed once and shared across calls: treat it as read-only.
func (p *Population) Leakages() []float64 {
	p.columns()
	return p.leaks
}

// ScatterPoint is one chip of the Figure 8 scatter plot.
type ScatterPoint struct {
	LatencyPS         float64
	NormalizedLeakage float64 // leakage / population average
	Reason            LossReason
}

// Scatter returns the Figure 8 data: latency versus leakage normalised
// to the population average, with each chip's loss classification under
// the given limits.
func (p *Population) Scatter(lim Limits) []ScatterPoint {
	p.columns()
	pts := make([]ScatterPoint, len(p.Chips))
	for i, c := range p.Chips {
		pts[i] = ScatterPoint{
			LatencyPS:         c.Meas.LatencyPS,
			NormalizedLeakage: p.leaks[i] / p.leakAvg,
			Reason:            Classify(c.Meas, lim),
		}
	}
	return pts
}
