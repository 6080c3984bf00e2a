package sram

import (
	"reflect"
	"testing"

	"yieldcache/internal/circuit"
	"yieldcache/internal/variation"
)

func measViews(n int, g Geometry) []*CacheMeasurement {
	ms := make([]CacheMeasurement, n)
	vs := make([]*CacheMeasurement, n)
	for i := range ms {
		Prepare(&ms[i], g)
		vs[i] = &ms[i]
	}
	return vs
}

// TestBatchKernelMatchesScalarReference pins the SoA kernel to the
// scalar reference implementation bit for bit, across batch widths
// around and beyond BatchWidth and for both decoder organisations.
// This is the anchor that keeps the golden seed-2006 tables stable
// through the data-layout rewrite.
func TestBatchKernelMatchesScalarReference(t *testing.T) {
	for _, hyapd := range []bool{false, true} {
		m, s := evalFixture(hyapd)
		ev := m.NewEvaluator(s.NewScratch())
		sc := s.NewScratch()
		ref := m.NewEvaluator(sc)
		id := 0
		for _, width := range []int{1, 2, BatchWidth - 1, BatchWidth, BatchWidth + 1, 2*BatchWidth + 3} {
			ids := make([]int, width)
			for j := range ids {
				ids[j] = id
				id++
			}
			got := measViews(width, m.Geom)
			ev.MeasureBatch(ids, got)
			for j, cid := range ids {
				chip := sc.Chip(cid)
				var want CacheMeasurement
				ref.measureRef(&chip, &want, hyapd)
				if !reflect.DeepEqual(want, *got[j]) {
					t.Fatalf("hyapd=%v width=%d chip %d: batch kernel diverges from scalar reference\nwant %+v\ngot  %+v",
						hyapd, width, cid, want, *got[j])
				}
			}
		}
	}
}

// TestMeasurePairBatchMatchesScalarPair pins the batched pair path:
// each lane must equal the scalar reference measurement of the regular
// organisation with the H-YAPD half derived from it.
func TestMeasurePairBatchMatchesScalarPair(t *testing.T) {
	m, s := evalFixture(false)
	ev := m.NewEvaluator(s.NewScratch())
	sc := s.NewScratch()
	ref := m.NewEvaluator(sc)
	ids := []int{3, 7, 11, 19, 23}
	reg := measViews(len(ids), m.Geom)
	hor := measViews(len(ids), m.Geom)
	ev.MeasurePairBatch(ids, reg, hor)
	var wantReg, wantHor CacheMeasurement
	for j, cid := range ids {
		chip := sc.Chip(cid)
		ref.measureRef(&chip, &wantReg, false)
		deriveHYAPD(&wantReg, &wantHor, m.Geom)
		if !reflect.DeepEqual(wantReg, *reg[j]) {
			t.Fatalf("chip %d: regular lane diverges from scalar pair", cid)
		}
		if !reflect.DeepEqual(wantHor, *hor[j]) {
			t.Fatalf("chip %d: H-YAPD lane diverges from scalar pair", cid)
		}
	}
}

// TestBatchZeroAlloc verifies the batched entry points are
// allocation-free once warm — the property the population builder's
// throughput depends on — at the builder's width and at width one.
func TestBatchZeroAlloc(t *testing.T) {
	for _, width := range []int{1, BatchWidth} {
		m, s := evalFixture(false)
		ev := m.NewEvaluator(s.NewScratch())
		ids := make([]int, width)
		dst := measViews(width, m.Geom)
		hor := measViews(width, m.Geom)
		ev.MeasureBatch(ids, dst)
		ev.MeasurePairBatch(ids, dst, hor)

		next := width
		if allocs := testing.AllocsPerRun(20, func() {
			for j := range ids {
				ids[j] = next
				next++
			}
			ev.MeasureBatch(ids, dst)
		}); allocs != 0 {
			t.Errorf("width %d: warm MeasureBatch allocates %.1f times per run, want 0", width, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			for j := range ids {
				ids[j] = next
				next++
			}
			ev.MeasurePairBatch(ids, dst, hor)
		}); allocs != 0 {
			t.Errorf("width %d: warm MeasurePairBatch allocates %.1f times per run, want 0", width, allocs)
		}
	}
}

// deltaTechCases enumerates one technology perturbation per DiffTech
// classification bucket plus multi-part combinations.
func deltaTechCases() []struct {
	name string
	mut  func(*circuit.Tech)
	want TechParts
} {
	return []struct {
		name string
		mut  func(*circuit.Tech)
		want TechParts
	}{
		{"identical", func(t *circuit.Tech) {}, TechParts{}},
		{"cell-leakage", func(t *circuit.Tech) { t.CellLeakage *= 1.25 }, TechParts{LeakScale: true}},
		{"periph-frac", func(t *circuit.Tech) { t.PeripheryLeakFrac = 0.30 }, TechParts{LeakScale: true}},
		{"subvt-slope", func(t *circuit.Tech) { t.SubVtSlope = 0.030 }, TechParts{LeakFactors: true}},
		{"alpha", func(t *circuit.Tech) { t.Alpha = 1.4 }, TechParts{Delay: true}},
		{"coupling", func(t *circuit.Tech) { t.CouplingFrac = 0.40 }, TechParts{Delay: true}},
		{"diffusion", func(t *circuit.Tech) { t.DiffusionFrac = 0.50 }, TechParts{Delay: true}},
		{"sense-gain", func(t *circuit.Tech) { t.SenseMarginGain = 2.5 }, TechParts{Delay: true}},
		{"sense-max", func(t *circuit.Tech) { t.SenseMarginMax = 6 }, TechParts{Delay: true}},
		{"vdd", func(t *circuit.Tech) { t.Vdd = 0.95 }, TechParts{Delay: true, LeakFactors: true}},
		{"vt-nominal", func(t *circuit.Tech) { t.VtNominal = 0.230 }, TechParts{Delay: true, LeakFactors: true}},
		{"dibl", func(t *circuit.Tech) { t.DIBL = 0.50 }, TechParts{Delay: true, LeakFactors: true}},
		{"leak-and-delay", func(t *circuit.Tech) { t.CellLeakage *= 0.8; t.Alpha = 1.35 },
			TechParts{Delay: true, LeakScale: true}},
		{"everything", func(t *circuit.Tech) { t.Vdd = 1.05; t.CellLeakage *= 1.1; t.SubVtSlope = 0.026 },
			TechParts{Delay: true, LeakFactors: true, LeakScale: true}},
	}
}

// TestDiffTechClassification pins the part classification of every
// Tech field, and the field count itself so a new field cannot be
// added without deciding its classification (DiffTech falls back to
// re-evaluating everything for unknown solo diffs, but combined diffs
// need the explicit entry).
func TestDiffTechClassification(t *testing.T) {
	if n := reflect.TypeOf(circuit.Tech{}).NumField(); n != 11 {
		t.Fatalf("circuit.Tech has %d fields, DiffTech classifies 11: update DiffTech and this test", n)
	}
	base := circuit.PTM45()
	for _, tc := range deltaTechCases() {
		mod := base
		tc.mut(&mod)
		if got := DiffTech(base, mod); got != tc.want {
			t.Errorf("%s: DiffTech = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestEvalPairDeltaBitIdentical is the delta-build acceptance anchor:
// for every diff class, re-evaluating a retained DrawSet with only the
// touched parts must reproduce a full evaluation under the new
// technology bit for bit — both organisations, every field.
func TestEvalPairDeltaBitIdentical(t *testing.T) {
	const n = BatchWidth + 3 // cover a ragged batch too
	base := circuit.PTM45()
	mBase := NewModel(base, false)
	s := variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), 2006)
	evBase := mBase.NewEvaluator(s.NewScratch())

	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	ds := new(DrawSet)
	var ls LeakState
	baseReg := measViews(n, mBase.Geom)
	baseHor := measViews(n, mBase.Geom)
	evBase.Sample(ids, ds)
	evBase.EvalPair(ds, baseReg, baseHor, &ls)

	for _, tc := range deltaTechCases() {
		mod := base
		tc.mut(&mod)
		m2 := NewModel(mod, false)
		ev2 := m2.NewEvaluator(s.NewScratch())

		wantReg := measViews(n, m2.Geom)
		wantHor := measViews(n, m2.Geom)
		ev2.EvalPair(ds, wantReg, wantHor, nil)

		gotReg := measViews(n, m2.Geom)
		gotHor := measViews(n, m2.Geom)
		ev2.EvalPairDelta(ds, DiffTech(base, mod), baseReg, &ls, gotReg, gotHor)

		for l := 0; l < n; l++ {
			if !reflect.DeepEqual(*wantReg[l], *gotReg[l]) {
				t.Fatalf("%s: chip %d regular delta eval diverges from full eval\nwant %+v\ngot  %+v",
					tc.name, l, *wantReg[l], *gotReg[l])
			}
			if !reflect.DeepEqual(*wantHor[l], *gotHor[l]) {
				t.Fatalf("%s: chip %d H-YAPD delta eval diverges from full eval", tc.name, l)
			}
		}
	}
}
