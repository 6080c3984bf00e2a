package variation

import "yieldcache/internal/stats"

// Sampler draws correlated process-variation parameters for a population
// of chips. Chip i's entire parameter tree is a deterministic function of
// (seed, i), so populations are reproducible and independent of
// evaluation order.
type Sampler struct {
	spec Spec
	fact Factors
	seed int64
}

// NewSampler returns a sampler for the given process spec, correlation
// factors and master seed.
func NewSampler(spec Spec, fact Factors, seed int64) *Sampler {
	return &Sampler{spec: spec, fact: fact, seed: seed}
}

// Draw is one sampled region of a chip: the parameter values plus the
// seed of the region's random stream, from which its children are
// derived. It carries no generator of its own — a Scratch performs the
// sampling — so draws can live in reusable buffers.
type Draw struct {
	Values Values
	seed   int64
}

// Scratch is the per-worker sampling state: one reusable generator plus
// the spec, correlation factors and master seed. Every region's stream
// is seeded by MixSeed(parent seed, label), so a region's draw is a pure
// function of (seed, chip id, path of labels) and regions can be drawn
// in any order. Not safe for concurrent use; give each worker its own.
//
// Production samples whole batches of chips through the Batch methods
// (ChipBatch, ChildrenBatch, WayBatch, BlocksBatch, RowsBatch). The
// scalar methods below walk one chip region by region; they are the
// executable specification those batches are checked against (the sram
// package's scalar reference measurement walks them), and they are
// exported because test files here cannot be seen from sram's tests.
type Scratch struct {
	spec Spec
	fact Factors
	seed int64 // master sampler seed, used by Chip and ChipBatch
	rng  *stats.RNG
}

// NewScratch returns a scratch drawing from the sampler's process spec,
// correlation factors and master seed.
func (s *Sampler) NewScratch() *Scratch {
	return &Scratch{spec: s.spec, fact: s.fact, seed: s.seed, rng: stats.NewRNG(0)}
}

// Spec returns the process specification the scratch draws from.
func (sc *Scratch) Spec() *Spec { return &sc.spec }

// Chip returns the root draw for chip id: the combined inter-die and
// way-0 intra-die variation, drawn around the Table 1 nominals inside
// the full 3-sigma window. Scalar reference for ChipBatch.
func (sc *Scratch) Chip(id int) Draw {
	seed := stats.MixSeed(sc.seed, int64(id)+1)
	sc.rng.Reseed(seed)
	d := Draw{seed: seed}
	for p := Param(0); p < NumParams; p++ {
		d.Values[p] = sc.rng.TruncNormal(sc.spec.Nominal[p], sc.spec.Sigma(p), sc.spec.Bound(p))
	}
	return d
}

// Child draws a sub-region correlated with parent: each parameter is
// redrawn with mean parent.Values[p] and the Table 1 sigma and 3-sigma
// window scaled by factor. label distinguishes siblings; the same
// (parent, factor, label) always yields the same child, and a
// non-positive factor copies the parent's values. Scalar reference for
// ChildrenBatch.
func (sc *Scratch) Child(parent *Draw, factor float64, label int64) Draw {
	seed := stats.MixSeed(parent.seed, label)
	d := Draw{seed: seed}
	if factor <= 0 {
		d.Values = parent.Values
		return d
	}
	sc.rng.Reseed(seed)
	for p := Param(0); p < NumParams; p++ {
		d.Values[p] = sc.rng.TruncNormal(parent.Values[p], factor*sc.spec.Sigma(p), factor*sc.spec.Bound(p))
	}
	return d
}

// Way returns the draw for way i (0..3) of the cache, using the 2x2-mesh
// way factors. Way 0 is perfectly correlated with the chip root (it *is*
// the reference region). Scalar reference for WayBatch.
func (sc *Scratch) Way(parent *Draw, i int) Draw {
	return sc.Child(parent, sc.fact.WayFactor(i), int64(1000+i))
}

// Block returns the draw for a circuit block (decoder, precharge, cell
// array, sense amplifiers, output drivers) of a region. Scalar
// reference for BlocksBatch.
func (sc *Scratch) Block(parent *Draw, label int64) Draw {
	return sc.Child(parent, sc.fact.Block, 2000+label)
}

// Row returns the draw for one row (word line) of a bank. Scalar
// reference for RowsBatch.
func (sc *Scratch) Row(parent *Draw, label int64) Draw {
	return sc.Child(parent, sc.fact.Row, 3000+label)
}

// Bit returns the draw for one bit cell of a row.
func (sc *Scratch) Bit(parent *Draw, label int64) Draw {
	return sc.Child(parent, sc.fact.Bit, 4000+label)
}

// Delta returns the fractional deviation of parameter p from nominal
// for a draw: (value - nominal) / nominal. Circuit models consume
// deltas so they stay unit-agnostic.
func (sc *Scratch) Delta(d *Draw, p Param) float64 {
	return sc.spec.DeltaOf(p, d.Values[p])
}
