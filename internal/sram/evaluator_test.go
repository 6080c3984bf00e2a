package sram

import (
	"reflect"
	"testing"

	"yieldcache/internal/circuit"
	"yieldcache/internal/variation"
)

func evalFixture(hyapd bool) (*Model, *variation.Sampler) {
	return NewModel(circuit.PTM45(), hyapd), variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), 2006)
}

// measure evaluates chip id of s on m through the batch kernel at
// width one.
func measure(m *Model, s *variation.Sampler, id int) CacheMeasurement {
	ev := m.NewEvaluator(s.NewScratch())
	defer ev.Release()
	var cm CacheMeasurement
	ev.MeasureBatch([]int{id}, []*CacheMeasurement{&cm})
	return cm
}

// TestMeasurePairMatchesSeparateBuilds pins the shared-draw guarantee:
// each lane of one MeasurePairBatch call must equal two independent
// measurements of the same chip, one per decoder organisation —
// bit-identical, not merely close.
func TestMeasurePairMatchesSeparateBuilds(t *testing.T) {
	mReg, s := evalFixture(false)
	mHor, _ := evalFixture(true)
	ev := mReg.NewEvaluator(s.NewScratch())
	evReg := mReg.NewEvaluator(s.NewScratch())
	evHor := mHor.NewEvaluator(s.NewScratch())
	ids := make([]int, 50)
	for i := range ids {
		ids[i] = i
	}
	for lo := 0; lo < len(ids); lo += BatchWidth {
		batch := ids[lo:min(lo+BatchWidth, len(ids))]
		reg := measViews(len(batch), mReg.Geom)
		hor := measViews(len(batch), mReg.Geom)
		wantReg := measViews(len(batch), mReg.Geom)
		wantHor := measViews(len(batch), mHor.Geom)
		ev.MeasurePairBatch(batch, reg, hor)
		evReg.MeasureBatch(batch, wantReg)
		evHor.MeasureBatch(batch, wantHor)
		for l, id := range batch {
			if !reflect.DeepEqual(*wantReg[l], *reg[l]) {
				t.Fatalf("chip %d: regular half of pair diverges", id)
			}
			if !reflect.DeepEqual(*wantHor[l], *hor[l]) {
				t.Fatalf("chip %d: H-YAPD half of pair diverges", id)
			}
		}
	}
}
