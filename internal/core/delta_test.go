package core

import (
	"context"
	"reflect"
	"testing"

	"yieldcache/internal/circuit"
	"yieldcache/internal/sram"
)

// measIdentical compares two populations on every measurement field —
// paths, bank aggregates, way aggregates and chip totals — so any
// single differing bit fails. chipsEqual (checkpoint_test.go) only
// samples the analysis-facing aggregates; the delta builder's contract
// is stronger.
func measIdentical(t *testing.T, label string, a, b *Population) {
	t.Helper()
	if len(a.Chips) != len(b.Chips) {
		t.Fatalf("%s: %d chips vs %d", label, len(a.Chips), len(b.Chips))
	}
	for i := range a.Chips {
		if !reflect.DeepEqual(a.Chips[i].Meas, b.Chips[i].Meas) {
			t.Fatalf("%s: chip %d measurement diverges\nwant %+v\ngot  %+v",
				label, i, b.Chips[i].Meas, a.Chips[i].Meas)
		}
	}
}

// mustDelta is NewDeltaBuilder under a background context, failing the
// test on error.
func mustDelta(t *testing.T, cfg PopulationConfig) *DeltaBuilder {
	t.Helper()
	d, err := NewDeltaBuilder(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// deltaPair is d.BuildPair under a background context, failing the test
// on error.
func deltaPair(t *testing.T, d *DeltaBuilder, tech circuit.Tech) (regular, horizontal *Population) {
	t.Helper()
	regular, horizontal, err := d.BuildPair(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	return regular, horizontal
}

// TestDeltaBuilderBaseMatchesFullBuild pins the builder's base pair to
// the ordinary build path: retaining draws must not perturb results.
func TestDeltaBuilderBaseMatchesFullBuild(t *testing.T) {
	cfg := PopulationConfig{N: 37, Seed: 2006}
	wantReg, wantHor := buildPair(t, cfg)
	d := mustDelta(t, cfg)
	gotReg, gotHor := d.Base()
	measIdentical(t, "base regular", gotReg, wantReg)
	measIdentical(t, "base horizontal", gotHor, wantHor)
}

// TestDeltaBuilderGridBitIdentical is the delta-build acceptance
// criterion: a two-parameter technology grid sweep (cell leakage ×
// alpha, exercising the leak-rescale path, the delay-only path, their
// combination and the no-op corner) built through BuildPair must be
// bit-identical to a full pair Build at every grid point.
func TestDeltaBuilderGridBitIdentical(t *testing.T) {
	base := circuit.PTM45()
	cfg := PopulationConfig{N: 2*sram.BatchWidth + 5, Seed: 2006, Tech: &base}
	d := mustDelta(t, cfg)

	leakScale := []float64{1.0, 0.8, 1.25}
	alphas := []float64{base.Alpha, 1.25, 1.40}
	for _, ls := range leakScale {
		for _, al := range alphas {
			tech := base
			tech.CellLeakage *= ls
			tech.Alpha = al
			full := cfg
			full.Tech = &tech
			wantReg, wantHor := buildPair(t, full)
			gotReg, gotHor := deltaPair(t, d, tech)
			label := d.Parts(tech)
			measIdentical(t, "regular "+labelOf(label), gotReg, wantReg)
			measIdentical(t, "horizontal "+labelOf(label), gotHor, wantHor)
		}
	}
}

func labelOf(p sram.TechParts) string {
	switch {
	case !p.Any():
		return "(no-op)"
	case p.Delay && p.LeakScale:
		return "(delay+leak-scale)"
	case p.Delay:
		return "(delay)"
	case p.LeakScale:
		return "(leak-scale)"
	default:
		return "(leak-factors)"
	}
}

// TestDeltaBuilderFullReevalGrid exercises the parts that re-run the
// leakage exponential and the everything-touched fallback: SubVtSlope
// and Vdd sweeps must also be bit-identical to full builds.
func TestDeltaBuilderFullReevalGrid(t *testing.T) {
	base := circuit.PTM45()
	cfg := PopulationConfig{N: sram.BatchWidth + 3, Seed: 2006, Tech: &base}
	d := mustDelta(t, cfg)
	for _, mut := range []func(*circuit.Tech){
		func(t *circuit.Tech) { t.SubVtSlope = 0.030 },
		func(t *circuit.Tech) { t.Vdd = 0.95 },
		func(t *circuit.Tech) { t.Vdd = 1.05; t.CellLeakage *= 1.1; t.SubVtSlope = 0.026 },
	} {
		tech := base
		mut(&tech)
		full := cfg
		full.Tech = &tech
		wantReg, wantHor := buildPair(t, full)
		gotReg, gotHor := deltaPair(t, d, tech)
		measIdentical(t, "regular "+labelOf(d.Parts(tech)), gotReg, wantReg)
		measIdentical(t, "horizontal "+labelOf(d.Parts(tech)), gotHor, wantHor)
	}
}
