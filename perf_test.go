package yieldcache

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func smallPerf() *PerfEvaluator {
	return NewPerfEvaluator(PerfConfig{Instructions: 40_000})
}

func TestConfigKeyNoCollisions(t *testing.T) {
	// Regression for the fmt.Sprint-based key: field boundaries must be
	// unambiguous, so distinct configurations that flatten to the same
	// digit stream still get distinct keys.
	type cfg struct {
		ways      []int
		hRegion   int
		predicted int
	}
	cases := []cfg{
		{nil, -1, 0},
		{[]int{}, -1, 0}, // empty slice must equal nil's key...
		{[]int{4, 4, 4, 4}, -1, 0},
		{[]int{4, 4, 4}, 4, -10}, // same digits as above, shifted across fields
		{[]int{4, 4, 44}, -1, 0},
		{[]int{44, 4, 4}, -1, 0},
		{[]int{5, 4, 4, 4}, -1, 0},
		{[]int{5, 4, 4, 4}, -1, 5},
		{[]int{5, 4, 4, 45}, -1, 0},
		{[]int{5, 4, 4}, 45, 0},
		{[]int{0, 4, 4, 4}, 0, 4},
		{[]int{0, 4, 4, 40}, 4, 0},
	}
	// ...so treat nil and empty as one config and require all other
	// pairs to differ.
	if configKey(cases[0].ways, -1, 0) != configKey(cases[1].ways, -1, 0) {
		t.Error("nil and empty wayCycles should share a key")
	}
	keys := make(map[string]cfg)
	for _, c := range cases[1:] {
		k := configKey(c.ways, c.hRegion, c.predicted)
		if prev, dup := keys[k]; dup {
			t.Errorf("collision: %+v and %+v both map to %q", prev, c, k)
		}
		keys[k] = c
	}
	// And the key is stable for identical inputs.
	if configKey([]int{5, 4}, 1, 2) != configKey([]int{5, 4}, 1, 2) {
		t.Error("key not deterministic")
	}
}

func TestPerfBenchmarks(t *testing.T) {
	e := smallPerf()
	if len(e.Benchmarks()) != 24 {
		t.Fatalf("suite size = %d", len(e.Benchmarks()))
	}
}

func TestDegradationsSignsAndCache(t *testing.T) {
	e := smallPerf()
	slow := CacheConfig{WayCycles: []int{5, 4, 4, 4}, HRegionOff: -1}
	d1 := e.Degradations(slow, 0)
	if len(d1) != 24 {
		t.Fatalf("degradations per benchmark = %d", len(d1))
	}
	pos := 0
	for _, v := range d1 {
		if v > 0 {
			pos++
		}
	}
	if pos < 20 {
		t.Errorf("a slow way should cost CPI on nearly every benchmark, positive on %d/24", pos)
	}
	// Evaluation is memoized: a second call must return identical values.
	d2 := e.Degradations(slow, 0)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("memoized degradations differ")
		}
	}
}

func TestAverageDegradationOrdering(t *testing.T) {
	e := smallPerf()
	one5 := e.AverageDegradation(CacheConfig{WayCycles: []int{5, 4, 4, 4}, HRegionOff: -1}, 0)
	two5 := e.AverageDegradation(CacheConfig{WayCycles: []int{5, 5, 4, 4}, HRegionOff: -1}, 0)
	all5 := e.AverageDegradation(CacheConfig{WayCycles: []int{5, 5, 5, 5}, HRegionOff: -1}, 0)
	if !(0 < one5 && one5 < two5 && two5 < all5) {
		t.Errorf("slow-way ordering violated: %v < %v < %v", one5, two5, all5)
	}
}

func TestNaiveBinningNumbers(t *testing.T) {
	e := smallPerf()
	p1, p2 := e.NaiveBinning()
	// Shape targets from Section 4.5: +1 cycle ~6.4%, +2 cycles ~12.6%,
	// the second roughly double the first.
	if p1 < 2 || p1 > 12 {
		t.Errorf("+1 cycle binning = %v%%, want the 6.4%% neighbourhood", p1)
	}
	if p2 < 1.6*p1 || p2 > 2.6*p1 {
		t.Errorf("+2 cycles (%v%%) should be roughly double +1 cycle (%v%%)", p2, p1)
	}
}

func TestFigure9Shape(t *testing.T) {
	e := smallPerf()
	f := e.Figure9()
	if len(f.Series["YAPD"]) != 24 || len(f.Series["VACA"]) != 24 {
		t.Fatal("figure series incomplete")
	}
	// Memory-bound mcf must be among the least VACA-sensitive, eon among
	// the most (the spread of Figure 9).
	idx := func(name string) int {
		for i, b := range f.Benchmarks {
			if b == name {
				return i
			}
		}
		t.Fatalf("benchmark %s missing", name)
		return -1
	}
	vaca := f.Series["VACA"]
	if vaca[idx("eon")] <= vaca[idx("mcf")] {
		t.Errorf("eon (%v) should suffer more from a 5-cycle way than mcf (%v)",
			vaca[idx("eon")], vaca[idx("mcf")])
	}
	out := RenderFigure(f, 40)
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "eon") {
		t.Error("figure rendering incomplete")
	}
}

func TestFigure10Shape(t *testing.T) {
	e := smallPerf()
	f := e.Figure10()
	if _, ok := f.Series["YAPD"]; ok {
		t.Error("YAPD cannot save a 2-2-0 chip; it has no Figure 10 series")
	}
	if len(f.Series["VACA"]) != 24 {
		t.Fatal("VACA series incomplete")
	}
}

func TestTable6EndToEnd(t *testing.T) {
	study := NewStudy(StudyConfig{Chips: 400, Seed: 2006})
	e := smallPerf()
	t6 := study.Table6(e)
	if len(t6.Rows) == 0 {
		t.Fatal("no saved configurations")
	}
	totalChips := 0
	for _, r := range t6.Rows {
		totalChips += r.Chips
		// Applicability rules of Table 6.
		if r.Key.N5+r.Key.N6 > 1 && r.YAPDOK {
			t.Errorf("YAPD cannot save %+v", r.Key)
		}
		if (r.Key.N6 > 0 || r.LeakageLimited) && r.VACAOK {
			t.Errorf("VACA cannot save %+v leak=%v", r.Key, r.LeakageLimited)
		}
		if r.Key.N6 > 1 && r.HybridOK {
			t.Errorf("Hybrid cannot save %+v", r.Key)
		}
		if r.HybridOK && r.Hybrid < 0 {
			t.Errorf("negative degradation for %+v", r.Key)
		}
	}
	if totalChips == 0 {
		t.Fatal("no chips in Table 6")
	}
	if t6.HybridSum <= 0 || t6.YAPDSum <= 0 || t6.VACASum <= 0 {
		t.Error("weighted sums missing")
	}
	// Paper ordering of the weighted sums: YAPD < Hybrid < VACA.
	if !(t6.YAPDSum < t6.VACASum) {
		t.Errorf("YAPD weighted sum (%v) should undercut VACA (%v)", t6.YAPDSum, t6.VACASum)
	}
	out := RenderTable6(t6)
	if !strings.Contains(out, "Weighted Sum") {
		t.Error("Table 6 rendering incomplete")
	}
}

// TestSuiteCPISingleflight pins the check-then-compute fix: concurrent
// Degradations calls for the same uncached configuration must coalesce
// onto one suite evaluation per distinct key instead of racing to
// recompute it.
func TestSuiteCPISingleflight(t *testing.T) {
	e := smallPerf()
	cfg := CacheConfig{WayCycles: []int{5, 4, 4, 4}, HRegionOff: -1}
	const callers = 16
	results := make([][]float64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.Degradations(cfg, 0)
		}(i)
	}
	wg.Wait()
	// Two distinct keys were needed: the baseline and the 5-cycle config.
	if got := e.computes.Load(); got != 2 {
		t.Errorf("suite computed %d times for 2 distinct keys across %d concurrent callers", got, callers)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("caller %d saw different degradations", i)
		}
	}
	// Warm calls stay cache hits.
	e.Degradations(cfg, 0)
	if got := e.computes.Load(); got != 2 {
		t.Errorf("warm call recomputed the suite (computes=%d)", got)
	}
}

// A batch that overlaps a key another call is still evaluating must
// wait for that evaluation instead of recomputing it, while simulating
// its other keys; concurrent overlapping batches and single-key calls
// compute each distinct key exactly once.
func TestSuiteCPIBatchSingleflight(t *testing.T) {
	e := NewPerfEvaluator(PerfConfig{Instructions: 2_000})
	slow := keyOf(CacheConfig{WayCycles: []int{5, 4, 4, 4}, HRegionOff: -1}, 0)
	twoSlow := keyOf(CacheConfig{WayCycles: []int{5, 5, 4, 4}, HRegionOff: -1}, 0)

	// Hold slow in flight as a single-key evaluation would.
	held := &perfCall{done: make(chan struct{})}
	e.mu.Lock()
	e.inflight[slow.String()] = held
	e.mu.Unlock()
	done := make(chan [][]float64)
	go func() { done <- e.suiteCPIs(context.Background(), []l1dKey{slow, baselineKey, twoSlow, slow}) }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		e.mu.Lock()
		_, ok := e.cache[twoSlow.String()]
		e.mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never simulated its own keys")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("batch returned before the in-flight key finished")
	case <-time.After(20 * time.Millisecond):
	}
	sentinel := []float64{42}
	e.mu.Lock()
	e.cache[slow.String()] = sentinel
	delete(e.inflight, slow.String())
	e.mu.Unlock()
	held.cpis = sentinel
	close(held.done)
	got := <-done
	if &got[0][0] != &sentinel[0] || &got[3][0] != &sentinel[0] {
		t.Error("batch recomputed the in-flight key instead of awaiting it")
	}
	if len(got[1]) != 24 || len(got[2]) != 24 {
		t.Error("batch's own keys incomplete")
	}
	if n := e.computes.Load(); n != 2 {
		t.Errorf("computes = %d, want 2 (baseline and the 2-slow-way cache)", n)
	}

	// Overlapping batches and single-key calls racing on a fresh
	// evaluator: four distinct keys, four suite evaluations.
	e = NewPerfEvaluator(PerfConfig{Instructions: 2_000})
	cfg := CacheConfig{WayCycles: []int{5, 4, 4, 4}, HRegionOff: -1}
	const callers = 8
	singles := make([][]float64, callers)
	batches := make([][][]float64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			singles[i] = e.Degradations(cfg, 0)
		}(i)
		go func(i int) {
			defer wg.Done()
			batches[i] = e.degradations(context.Background(), slow, twoSlow, keyOf(cfg, 5))
		}(i)
	}
	wg.Wait()
	if n := e.computes.Load(); n != 4 {
		t.Errorf("computes = %d for 4 distinct keys across %d concurrent callers", n, 2*callers)
	}
	for i := 0; i < callers; i++ {
		if !reflect.DeepEqual(singles[i], batches[0][0]) || !reflect.DeepEqual(batches[i], batches[0]) {
			t.Fatalf("caller %d saw different degradations", i)
		}
	}
}
