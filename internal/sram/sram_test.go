package sram

import (
	"math"
	"testing"

	"yieldcache/internal/circuit"
	"yieldcache/internal/stats"
	"yieldcache/internal/variation"
)

func testSampler(seed int64) *variation.Sampler {
	return variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), seed)
}

func TestGeometryPaper(t *testing.T) {
	g := Paper16KB()
	if g.Ways != 4 || g.BanksPerWay != 4 || g.RowsPerBank != 64 || g.BitsPerRow != 128 {
		t.Errorf("geometry does not match Section 3: %+v", g)
	}
	// 4 ways x 4 banks x 64 x 128 bits = 16 KB.
	bits := g.Ways * g.BanksPerWay * g.RowsPerBank * g.BitsPerRow
	if bits != 16*1024*8 {
		t.Errorf("total capacity = %d bits, want 16KB", bits)
	}
	if g.CellsPerBank() != 8192 || g.CellsPerWay() != 32768 {
		t.Errorf("cell counts wrong: bank %d way %d", g.CellsPerBank(), g.CellsPerWay())
	}
}

func TestNominalStagesDistance(t *testing.T) {
	near := NominalStages(0)
	far := NominalStages(1)
	var nearSum, farSum float64
	for i := range near {
		nearSum += near[i].NominalPS
		farSum += far[i].NominalPS
	}
	if farSum <= nearSum {
		t.Error("far rows must have longer nominal paths than near rows")
	}
	// Total nominal access should be in the hundreds of picoseconds.
	if farSum < 300 || farSum > 800 {
		t.Errorf("nominal far-path delay = %v ps, outside plausible 45nm range", farSum)
	}
}

func TestMeasureShape(t *testing.T) {
	m := NewModel(circuit.PTM45(), false)
	cm := measure(m, testSampler(1), 0)
	if len(cm.Ways) != 4 {
		t.Fatalf("ways = %d", len(cm.Ways))
	}
	for wi, w := range cm.Ways {
		if len(w.Banks) != 4 {
			t.Fatalf("way %d banks = %d", wi, len(w.Banks))
		}
		if w.LatencyPS <= 0 || w.LeakageW <= 0 {
			t.Errorf("way %d non-positive measurement: %v ps, %v W", wi, w.LatencyPS, w.LeakageW)
		}
		maxBank := 0.0
		leak := w.PeriphLeakW
		for _, b := range w.Banks {
			if len(b.Paths) != 4 {
				t.Fatalf("paths per bank = %d", len(b.Paths))
			}
			if b.MaxPS > maxBank {
				maxBank = b.MaxPS
			}
			leak += b.ArrayLeakW
			for _, p := range b.Paths {
				if p.DelayPS <= 0 || p.DelayPS > b.MaxPS+1e-9 {
					t.Errorf("path delay %v inconsistent with bank max %v", p.DelayPS, b.MaxPS)
				}
			}
		}
		if math.Abs(maxBank-w.LatencyPS) > 1e-9 {
			t.Errorf("way latency %v != max bank %v", w.LatencyPS, maxBank)
		}
		if math.Abs(leak-w.LeakageW) > 1e-9*leak {
			t.Errorf("way leakage %v != sum of parts %v", w.LeakageW, leak)
		}
	}
	wantLat := 0.0
	wantLeak := 0.0
	for _, w := range cm.Ways {
		if w.LatencyPS > wantLat {
			wantLat = w.LatencyPS
		}
		wantLeak += w.LeakageW
	}
	if cm.LatencyPS != wantLat {
		t.Errorf("cache latency %v != slowest way %v", cm.LatencyPS, wantLat)
	}
	if math.Abs(cm.LeakageW-wantLeak) > 1e-9*wantLeak {
		t.Errorf("cache leakage %v != sum %v", cm.LeakageW, wantLeak)
	}
}

func TestMeasureDeterminism(t *testing.T) {
	m := NewModel(circuit.PTM45(), false)
	s := testSampler(42)
	a := measure(m, s, 7)
	b := measure(m, s, 7)
	if a.LatencyPS != b.LatencyPS || a.LeakageW != b.LeakageW {
		t.Error("measurement is not deterministic for the same chip")
	}
	c := measure(m, s, 8)
	if a.LatencyPS == c.LatencyPS {
		t.Error("different chips produced identical latency")
	}
}

func TestHYAPDPenalty(t *testing.T) {
	// With the same variation draws, the H-YAPD organisation must be
	// exactly 2.5% slower on every path and identical in leakage.
	reg := NewModel(circuit.PTM45(), false)
	hor := NewModel(circuit.PTM45(), true)
	s := testSampler(3)
	for id := 0; id < 20; id++ {
		a := measure(reg, s, id)
		b := measure(hor, s, id)
		if math.Abs(b.LatencyPS/a.LatencyPS-HYAPDLatencyPenalty) > 1e-9 {
			t.Fatalf("chip %d: H-YAPD latency ratio = %v, want %v",
				id, b.LatencyPS/a.LatencyPS, HYAPDLatencyPenalty)
		}
		if math.Abs(b.LeakageW-a.LeakageW) > 1e-9*a.LeakageW {
			t.Fatalf("chip %d: H-YAPD changed leakage", id)
		}
	}
}

func TestLatencyWithoutBank(t *testing.T) {
	m := NewModel(circuit.PTM45(), true)
	cm := measure(m, testSampler(4), 1)
	w := cm.Ways[0]
	// Find the critical bank; removing it must not increase latency and
	// removing any other bank must leave latency unchanged.
	crit := 0
	for i, b := range w.Banks {
		if b.MaxPS == w.LatencyPS {
			crit = i
		}
	}
	if got := w.LatencyWithoutBank(crit); got > w.LatencyPS {
		t.Errorf("removing critical bank raised latency: %v > %v", got, w.LatencyPS)
	}
	other := (crit + 1) % len(w.Banks)
	if got := w.LatencyWithoutBank(other); math.Abs(got-w.LatencyPS) > 1e-9 {
		t.Errorf("removing non-critical bank changed latency: %v != %v", got, w.LatencyPS)
	}
}

func TestLeakageWithoutBank(t *testing.T) {
	m := NewModel(circuit.PTM45(), true)
	w := measure(m, testSampler(5), 2).Ways[1]
	for b := range w.Banks {
		got := w.LeakageWithoutBank(b)
		want := w.LeakageW - w.Banks[b].ArrayLeakW
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("bank %d: LeakageWithoutBank = %v, want %v", b, got, want)
		}
		if got <= w.PeriphLeakW {
			t.Errorf("bank %d: removing one bank cannot eliminate other banks' leakage", b)
		}
	}
}

func TestPopulationDistributions(t *testing.T) {
	// The Monte Carlo population must have the gross statistical shape
	// Section 5.1 depends on: meaningful latency spread, heavy-tailed
	// leakage (mean well above median), strong inter-way latency
	// correlation, and the inverse latency-leakage relation of Figure 8.
	if testing.Short() {
		t.Skip("population statistics need a few hundred chips")
	}
	m := NewModel(circuit.PTM45(), false)
	s := testSampler(6)
	n := 600
	lat := make([]float64, n)
	leak := make([]float64, n)
	w0 := make([]float64, n)
	w3 := make([]float64, n)
	for i := 0; i < n; i++ {
		cm := measure(m, s, i)
		lat[i] = cm.LatencyPS
		leak[i] = cm.LeakageW
		w0[i] = cm.Ways[0].LatencyPS
		w3[i] = cm.Ways[3].LatencyPS
	}
	mLat, sLat := stats.MeanStd(lat)
	if cv := sLat / mLat; cv < 0.03 || cv > 0.40 {
		t.Errorf("latency coefficient of variation = %v, want a meaningful spread (3%%..40%%)", cv)
	}
	mLeak := stats.Mean(leak)
	medLeak := stats.Percentile(leak, 50)
	if mLeak/medLeak < 1.05 {
		t.Errorf("leakage mean/median = %v, want a right-skewed (heavy-tailed) distribution", mLeak/medLeak)
	}
	if c := stats.Correlation(w0, w3); c < 0.5 {
		t.Errorf("inter-way latency correlation = %v, want strong (the premise of Section 4.2)", c)
	}
	if c := stats.Correlation(lat, leak); c > -0.1 {
		t.Errorf("latency-leakage correlation = %v, want clearly negative (fast chips leak)", c)
	}
}
