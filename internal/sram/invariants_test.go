package sram

import (
	"math"
	"testing"
	"testing/quick"

	"yieldcache/internal/circuit"
	"yieldcache/internal/variation"
)

// Property: for any chip, the measurement invariants hold — positive
// delays, way latency equals its slowest bank, leakage decomposes into
// banks plus periphery, and removing any bank never increases latency.
func TestMeasurementInvariantsProperty(t *testing.T) {
	m := NewModel(circuit.PTM45(), false)
	s := variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), 99)
	f := func(id uint16) bool {
		cm := measure(m, s, int(id))
		for _, w := range cm.Ways {
			sum := w.PeriphLeakW
			maxBank := 0.0
			for b := range w.Banks {
				if w.Banks[b].MaxPS <= 0 || w.Banks[b].ArrayLeakW <= 0 {
					return false
				}
				sum += w.Banks[b].ArrayLeakW
				if w.Banks[b].MaxPS > maxBank {
					maxBank = w.Banks[b].MaxPS
				}
				if w.LatencyWithoutBank(b) > w.LatencyPS+1e-9 {
					return false
				}
				if w.LeakageWithoutBank(b) >= w.LeakageW {
					return false
				}
			}
			if math.Abs(maxBank-w.LatencyPS) > 1e-9 {
				return false
			}
			if math.Abs(sum-w.LeakageW) > 1e-9*sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNominalChipIsNominal(t *testing.T) {
	// A chip with zero variation everywhere (factor-0 sampler via a spec
	// whose sigmas are zero) must land exactly on the nominal stage
	// delays for its slowest path.
	spec := variation.Nassif45nm()
	spec.Sigma3Pct = variation.Values{} // all zero: no variation at all
	s := variation.NewSampler(spec, variation.PaperFactors(), 1)
	m := NewModel(circuit.PTM45(), false)
	cm := measure(m, s, 0)

	// The farthest modelled row: bank 3, slot 3 -> row 48 of that bank.
	farthest := (float64(3*64) + 48 + 0.5) / 256
	want := 0.0
	for _, st := range NominalStages(farthest) {
		want += st.NominalPS
	}
	// With zero variation the sense margin is exactly 1 and every factor
	// unity, so the critical path equals the nominal sum.
	if math.Abs(cm.LatencyPS-want) > 1e-6 {
		t.Errorf("zero-variation latency = %v, want %v", cm.LatencyPS, want)
	}
	// All ways identical.
	for _, w := range cm.Ways {
		if math.Abs(w.LatencyPS-cm.LatencyPS) > 1e-9 {
			t.Error("zero-variation ways differ")
		}
	}
}

func TestLeakageScalesWithCellCount(t *testing.T) {
	tech := circuit.PTM45()
	spec := variation.Nassif45nm()
	spec.Sigma3Pct = variation.Values{}
	s := variation.NewSampler(spec, variation.PaperFactors(), 1)
	m := NewModel(tech, false)
	cm := measure(m, s, 0)
	// Zero variation: leakage = cells * CellLeakage * (1 + periphery).
	cells := float64(m.Geom.Ways * m.Geom.CellsPerWay())
	want := cells * tech.CellLeakage * (1 + tech.PeripheryLeakFrac)
	if math.Abs(cm.LeakageW-want) > 1e-9*want {
		t.Errorf("zero-variation leakage = %v, want %v", cm.LeakageW, want)
	}
}
