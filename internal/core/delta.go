package core

import (
	"context"

	"yieldcache/internal/circuit"
	"yieldcache/internal/sram"
	"yieldcache/internal/variation"
)

// DeltaBuilder makes dense technology sweeps nearly free by sharing
// one set of variation draws (common random numbers) across every
// sweep point. It builds the base population pair once, retaining each
// batch's DrawSet and leakage aggregates; BuildPair then re-evaluates
// only the measurement parts the technology diff touches:
//
//   - sampling never reruns — the retained draws are reused verbatim,
//     which is also what makes adjacent grid points directly
//     comparable (no Monte Carlo noise between them);
//   - a diff confined to leakage scaling (CellLeakage,
//     PeripheryLeakFrac) rescales cached aggregates without touching
//     draws at all;
//   - a diff confined to the leakage exponential (SubVtSlope)
//     recomputes leakage columns and copies the delay side, and vice
//     versa for delay-only diffs (Alpha, CouplingFrac, DiffusionFrac,
//     sense-margin shape);
//   - parameters entering both (Vdd, VtNominal, DIBL) re-evaluate both
//     halves, still skipping sampling.
//
// Every BuildPair result is bit-identical to a full pair Build of the
// same configuration at the new technology: the kernel preserves draw
// and accumulation order, and cached aggregates are the exact floats a
// full build computes.
//
// The retained draws cost about 7.7 KB per chip (N=2000 ≈ 15 MB), so
// the builder is an opt-in for sweep-shaped workloads rather than the
// default build path. Chips are evaluated in fixed sequential batches
// of sram.BatchWidth, so results are independent of any worker
// configuration; a DeltaBuilder is not safe for concurrent use.
type DeltaBuilder struct {
	cfg      PopulationConfig
	baseTech circuit.Tech
	geom     sram.Geometry
	sampler  *variation.Sampler
	draws    []*sram.DrawSet
	leaks    []*sram.LeakState
	baseReg  *Population
	baseHor  *Population
}

// NewDeltaBuilder builds the base population pair for cfg (cfg.Org,
// cfg.Workers, cfg.Checkpoint and cfg.Estimate are ignored: the build
// is a sequential pair build) and retains the per-batch draws and
// leakage aggregates for delta re-evaluation. The base build polls ctx
// once per sram.BatchWidth-chip batch and returns ctx.Err() early when
// it fires, so a sweep job can abandon a large base build the moment
// its request is cancelled.
func NewDeltaBuilder(ctx context.Context, cfg PopulationConfig) (*DeltaBuilder, error) {
	cfg.fill()
	nBatches := (cfg.N + sram.BatchWidth - 1) / sram.BatchWidth
	d := &DeltaBuilder{
		cfg:      cfg,
		baseTech: *cfg.Tech,
		geom:     sram.Paper16KB(),
		sampler:  variation.NewSampler(*cfg.Spec, *cfg.Fact, cfg.Seed),
		draws:    make([]*sram.DrawSet, nBatches),
		leaks:    make([]*sram.LeakState, nBatches),
	}
	if cfg.Geom != nil {
		d.geom = *cfg.Geom
	}
	var ids [sram.BatchWidth]int
	reg, hor, err := d.build(ctx, *cfg.Tech, func(ev *sram.Evaluator, k, lo int, regV, horV []*sram.CacheMeasurement) {
		for j := range regV {
			ids[j] = lo + j
		}
		d.draws[k], d.leaks[k] = new(sram.DrawSet), new(sram.LeakState)
		ev.Sample(ids[:len(regV)], d.draws[k])
		ev.EvalPair(d.draws[k], regV, horV, d.leaks[k])
	})
	if err != nil {
		return nil, err
	}
	d.baseReg, d.baseHor = reg, hor
	return d, nil
}

// Base returns the base-technology population pair the builder was
// constructed from.
func (d *DeltaBuilder) Base() (regular, horizontal *Population) {
	return d.baseReg, d.baseHor
}

// Parts returns the measurement parts a sweep to tech would
// re-evaluate, for callers that want to inspect sweep cost up front.
func (d *DeltaBuilder) Parts(tech circuit.Tech) sram.TechParts {
	return sram.DiffTech(d.baseTech, tech)
}

// BuildPair evaluates the retained chip draws under tech, reusing
// everything the technology diff against the base does not touch. The
// result is bit-identical to a pair Build of the builder's
// configuration with Tech set to tech. Cancellation is polled once per
// batch like NewDeltaBuilder; on cancellation BuildPair returns
// ctx.Err() and nil populations, and the builder stays valid for
// further calls.
func (d *DeltaBuilder) BuildPair(ctx context.Context, tech circuit.Tech) (regular, horizontal *Population, err error) {
	parts := sram.DiffTech(d.baseTech, tech)
	var baseV [sram.BatchWidth]*sram.CacheMeasurement
	return d.build(ctx, tech, func(ev *sram.Evaluator, k, lo int, regV, horV []*sram.CacheMeasurement) {
		for j := range regV {
			baseV[j] = &d.baseReg.Chips[lo+j].Meas
		}
		ev.EvalPairDelta(d.draws[k], parts, baseV[:len(regV)], d.leaks[k], regV, horV)
	})
}

// build measures a fresh pair of chip arenas at tech: eval fills batch
// k, the chips from lo on, in chip order. Cancellation is polled
// between batches.
func (d *DeltaBuilder) build(ctx context.Context, tech circuit.Tech,
	eval func(ev *sram.Evaluator, k, lo int, regV, horV []*sram.CacheMeasurement)) (regular, horizontal *Population, err error) {
	regModel, horModel := newModels(tech, &d.geom)
	cancelled, stopWatch := watchCancel(ctx)
	defer stopWatch()
	regChips := newChipArena(d.cfg.N, d.geom, cancelled)
	horChips := newChipArena(d.cfg.N, d.geom, cancelled)
	ev := regModel.NewEvaluator(d.sampler.NewScratch())
	defer ev.Release()
	var regV, horV [sram.BatchWidth]*sram.CacheMeasurement
	for k, lo := 0, 0; lo < d.cfg.N; k, lo = k+1, lo+sram.BatchWidth {
		if cancelled.Load() {
			return nil, nil, ctx.Err()
		}
		bn := min(sram.BatchWidth, d.cfg.N-lo)
		for j := 0; j < bn; j++ {
			regV[j] = &regChips[lo+j].Meas
			horV[j] = &horChips[lo+j].Meas
		}
		eval(ev, k, lo, regV[:bn], horV[:bn])
	}
	if cancelled.Load() {
		return nil, nil, ctx.Err()
	}
	regular = &Population{Chips: regChips, Model: regModel, Seed: d.cfg.Seed}
	horizontal = &Population{Chips: horChips, Model: horModel, Seed: d.cfg.Seed}
	return regular, horizontal, nil
}
