package yieldcache

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yieldcache/internal/core"
	"yieldcache/internal/cpu"
	"yieldcache/internal/obs"
	"yieldcache/internal/report"
	"yieldcache/internal/stats"
	"yieldcache/internal/workload"
)

// PerfConfig parameterises the CPI evaluation.
type PerfConfig struct {
	// Instructions per benchmark run (default 300k; the paper runs 100M
	// on SimpleScalar — the synthetic traces converge much faster).
	Instructions int
	// Seed drives the trace generators.
	Seed int64
}

// PerfEvaluator prices cache configurations in CPI over the SPEC2000
// suite. Identical configurations are evaluated once and cached; a
// per-key singleflight guard makes that "once" hold under concurrency.
type PerfEvaluator struct {
	cfg PerfConfig

	mu       sync.Mutex
	cache    map[string][]float64 // config key -> per-benchmark CPI
	inflight map[string]*perfCall // config key -> in-progress evaluation
	computes atomic.Int64         // suite evaluations actually run (tests)
	names    []string
}

// perfCall is one in-progress suite evaluation; latecomers for the same
// key wait on done instead of recomputing.
type perfCall struct {
	done chan struct{}
	cpis []float64
}

// NewPerfEvaluator returns an evaluator over the full 24-benchmark
// suite.
func NewPerfEvaluator(cfg PerfConfig) *PerfEvaluator {
	if cfg.Instructions == 0 {
		cfg.Instructions = 300_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &PerfEvaluator{
		cfg:      cfg,
		cache:    make(map[string][]float64),
		inflight: make(map[string]*perfCall),
		names:    workload.Names(),
	}
}

// Benchmarks returns the benchmark names in evaluation order.
func (e *PerfEvaluator) Benchmarks() []string { return e.names }

// configKey encodes a cache configuration unambiguously: each field is
// separated by a delimiter that cannot appear inside a number, so no
// two distinct (wayCycles, hRegion, predicted) triples share a key.
// (fmt.Sprint's space-joined form left field boundaries ambiguous.)
func configKey(wayCycles []int, hRegion, predicted int) string {
	var b strings.Builder
	for i, c := range wayCycles {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(hRegion))
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(predicted))
	return b.String()
}

// l1dKey is one L1D configuration the evaluator prices: per-way hit
// cycles (nil = the unmodified cache), the disabled horizontal region
// (-1 = none) and the load latency the scheduler predicts (0 = base).
type l1dKey struct {
	ways               []int
	hRegion, predicted int
}

func (k l1dKey) String() string { return configKey(k.ways, k.hRegion, k.predicted) }

// baselineKey is the unmodified 4-cycle 4-way cache.
var baselineKey = l1dKey{nil, -1, 0}

// keyOf returns the key of a facade cache configuration.
func keyOf(cfg CacheConfig, predicted int) l1dKey {
	way := cfg.WayCycles
	if len(way) == 0 {
		way = nil
	}
	return l1dKey{way, cfg.HRegionOff, predicted}
}

// suiteCPIs returns the per-benchmark CPI of each requested L1D
// configuration. Cached keys are read back; keys another call is
// already evaluating are awaited, not recomputed; every remaining
// distinct key is registered in flight and the lot is simulated in one
// suite pass, each benchmark's trace generated once for all of them.
// Each distinct key of a request counts once as a cache hit, a
// coalesced wait or a miss (a suite evaluation). The suite pass's span
// is a child of the span ctx carries.
func (e *PerfEvaluator) suiteCPIs(ctx context.Context, keys []l1dKey) [][]float64 {
	calls := make([]*perfCall, len(keys))    // evaluation to await, by position
	first := make(map[string]int, len(keys)) // key -> its first position
	var todo []l1dKey
	var todoCalls []*perfCall
	var hits, coalesced int64
	out := make([][]float64, len(keys))
	e.mu.Lock()
	for k, key := range keys {
		id := key.String()
		if _, dup := first[id]; dup {
			continue
		}
		first[id] = k
		if got, ok := e.cache[id]; ok {
			out[k] = got
			hits++
			continue
		}
		call, ok := e.inflight[id]
		if ok {
			coalesced++
		} else {
			call = &perfCall{done: make(chan struct{})}
			e.inflight[id] = call
			todo = append(todo, key)
			todoCalls = append(todoCalls, call)
		}
		calls[k] = call
	}
	e.mu.Unlock()
	if hits > 0 {
		obs.C("perf_config_cache_hits_total").Add(hits)
	}
	if coalesced > 0 {
		obs.C("perf_config_cache_coalesced_total").Add(coalesced)
	}

	if len(todo) > 0 {
		obs.C("perf_config_cache_misses_total").Add(int64(len(todo)))
		e.computes.Add(int64(len(todo)))
		cpis := e.simulate(ctx, todo)
		e.mu.Lock()
		for j, key := range todo {
			id := key.String()
			e.cache[id] = cpis[j]
			delete(e.inflight, id)
			todoCalls[j].cpis = cpis[j]
		}
		e.mu.Unlock()
		for _, call := range todoCalls {
			close(call.done)
		}
	}
	for k, key := range keys {
		if k0 := first[key.String()]; k0 != k {
			out[k] = out[k0]
		} else if call := calls[k]; call != nil {
			<-call.done
			out[k] = call.cpis
		}
	}
	return out
}

// simulate runs the whole suite once for a set of configurations.
// Workers pull benchmarks from a shared index; each benchmark's trace
// is generated once and stepped through one machine per configuration.
func (e *PerfEvaluator) simulate(ctx context.Context, keys []l1dKey) [][]float64 {
	_, sp := obs.StartSpan(ctx, "suite_cpi "+strconv.Itoa(len(keys))+" configs")
	defer sp.End()
	runSec := obs.H("perf_benchmark_run_seconds", obs.ExpBuckets(1e-3, 4, 10))
	cpiHist := obs.H("perf_benchmark_cpi", obs.LinearBuckets(0.5, 0.25, 14))

	cfgs := make([]cpu.Config, len(keys))
	for k, key := range keys {
		cfgs[k] = cpu.DefaultConfig().WithL1D(key.ways, key.hRegion, key.predicted)
	}
	suite := workload.SPEC2000()
	cpis := make([][]float64, len(keys))
	for k := range cpis {
		cpis[k] = make([]float64, len(suite))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(suite)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := sp.Worker("cpi_runs")
			defer ws.End()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(suite) {
					return
				}
				t0 := time.Now()
				res := cpu.RunBatch(workload.NewGenerator(suite[i], e.cfg.Seed), e.cfg.Instructions, cfgs)
				runSec.Observe(time.Since(t0).Seconds())
				for k, r := range res {
					cpis[k][i] = r.CPI
					cpiHist.Observe(r.CPI)
				}
			}
		}()
	}
	wg.Wait()
	return cpis
}

// degradations returns, for each key, the per-benchmark CPI increase
// (percent) relative to the unmodified cache, requesting the keys and
// the baseline as one batch.
func (e *PerfEvaluator) degradations(ctx context.Context, keys ...l1dKey) [][]float64 {
	if len(keys) == 0 {
		return nil
	}
	cpis := e.suiteCPIs(ctx, append([]l1dKey{baselineKey}, keys...))
	base := cpis[0]
	out := make([][]float64, len(keys))
	for k, cur := range cpis[1:] {
		out[k] = make([]float64, len(base))
		for i := range base {
			out[k][i] = (cur[i]/base[i] - 1) * 100
		}
	}
	return out
}

// Degradations returns the per-benchmark CPI increase (percent) of a
// cache configuration relative to the unmodified cache.
func (e *PerfEvaluator) Degradations(cfg CacheConfig, predicted int) []float64 {
	return e.degradations(context.TODO(), keyOf(cfg, predicted))[0]
}

// AverageDegradation returns the suite-average CPI increase (percent).
func (e *PerfEvaluator) AverageDegradation(cfg CacheConfig, predicted int) float64 {
	return stats.Mean(e.Degradations(cfg, predicted))
}

// Table6Row is one row of Table 6: a way-latency configuration, how many
// saved chips exhibit it, and each scheme's CPI cost for it (NaN-free:
// Applicable reports N/A).
type Table6Row struct {
	Key            core.ConfigKey
	LeakageLimited bool
	Chips          int
	YAPD           float64
	YAPDOK         bool
	VACA           float64
	VACAOK         bool
	Hybrid         float64
	HybridOK       bool
}

// Table6 combines the yield study's saved-chip configurations with the
// CPI evaluator, reproducing Table 6 including the weighted-sum bottom
// row.
type Table6 struct {
	Rows []Table6Row
	// Weighted sums over saved chips, percent CPI increase.
	YAPDSum, VACASum, HybridSum float64
}

// Table6 evaluates the performance cost of every saved configuration.
// Rows reuse scheme-effective configurations heavily (every YAPD row is
// the same 3-way cache, the VACA rows collapse to a handful of
// way-cycle vectors), so all of them and the baseline are requested as
// one batch, which simulates each distinct configuration once.
func (s *Study) Table6(e *PerfEvaluator) Table6 {
	ctx, sp := obs.StartSpan(context.TODO(), "table6_cpi")
	defer sp.End()
	rows := s.SavedConfigurations()
	out := Table6{}

	threeWay := CacheConfig{WayCycles: []int{0, 4, 4, 4}, HRegionOff: -1}

	// Each row's scheme-effective configuration per scheme, as an index
	// into keys (-1: the scheme cannot save the row). suiteCPIs simulates
	// each distinct key once however often it repeats.
	var keys []l1dKey
	use := func(cfg CacheConfig) int {
		keys = append(keys, keyOf(cfg, 0))
		return len(keys) - 1
	}
	const yapd, vaca, hybrid = 0, 1, 2
	picks := make([][3]int, len(rows))
	for i, r := range rows {
		p := [3]int{-1, -1, -1}
		// YAPD: applicable when at most one way is slow (it gets turned
		// off) or the chip is leakage-limited; result is always a 3-way
		// 4-cycle cache.
		if r.Key.N5+r.Key.N6 <= 1 {
			p[yapd] = use(threeWay)
		}
		// VACA: applicable when nothing needs more than 5 cycles and the
		// chip is not leakage-limited; all ways stay on.
		if r.Key.N6 == 0 && !r.LeakageLimited {
			p[vaca] = use(vacaConfig(r.Key.N5, 4))
		}
		// Hybrid: keeps ways on when possible (VACA behaviour), turns off
		// a single 6-cycle way, or the leakiest way on leakage limits.
		switch {
		case r.LeakageLimited && r.Key.N5 == 0 && r.Key.N6 == 0:
			p[hybrid] = use(threeWay)
		case r.Key.N6 == 0 && !r.LeakageLimited:
			p[hybrid] = p[vaca]
		case r.Key.N6 == 1:
			p[hybrid] = use(vacaConfig(r.Key.N5, 3))
		}
		picks[i] = p
	}
	deg := e.degradations(ctx, keys...)
	avg := func(k int) (float64, bool) {
		if k < 0 {
			return 0, false
		}
		return stats.Mean(deg[k]), true
	}
	for i, r := range rows {
		row := Table6Row{Key: r.Key, LeakageLimited: r.LeakageLimited, Chips: r.Chips}
		row.YAPD, row.YAPDOK = avg(picks[i][yapd])
		row.VACA, row.VACAOK = avg(picks[i][vaca])
		row.Hybrid, row.HybridOK = avg(picks[i][hybrid])
		out.Rows = append(out.Rows, row)
	}

	var yw, yv, vw, vv, hw, hv float64
	for _, r := range out.Rows {
		if r.YAPDOK {
			yw += float64(r.Chips)
			yv += float64(r.Chips) * r.YAPD
		}
		if r.VACAOK {
			vw += float64(r.Chips)
			vv += float64(r.Chips) * r.VACA
		}
		if r.HybridOK {
			hw += float64(r.Chips)
			hv += float64(r.Chips) * r.Hybrid
		}
	}
	if yw > 0 {
		out.YAPDSum = yv / yw
	}
	if vw > 0 {
		out.VACASum = vv / vw
	}
	if hw > 0 {
		out.HybridSum = hv / hw
	}
	return out
}

// vacaConfig builds a configuration with `ways` enabled ways, of which
// n5 run at 5 cycles and the rest at 4 (remaining ways disabled).
func vacaConfig(n5, ways int) CacheConfig {
	cfg := CacheConfig{WayCycles: make([]int, 4), HRegionOff: -1}
	w := 0
	for i := 0; i < n5 && w < ways; i++ {
		cfg.WayCycles[w] = 5
		w++
	}
	for w < ways {
		cfg.WayCycles[w] = 4
		w++
	}
	return cfg
}

// RenderTable6 renders the Table 6 layout.
func RenderTable6(t6 Table6) string {
	t := report.NewTable("Table 6: CPI degradation of saved cache configurations",
		"4cyc", "5cyc", "6+cyc", "Limited by", "Chips", "YAPD[%]", "VACA[%]", "Hybrid[%]")
	fmtCol := func(v float64, ok bool) string {
		if !ok {
			return "N/A"
		}
		return fmt.Sprintf("%.2f", v)
	}
	for _, r := range t6.Rows {
		lim := "delay"
		if r.LeakageLimited {
			lim = "leakage"
		}
		t.AddRow(r.Key.N4, r.Key.N5, r.Key.N6, lim, r.Chips,
			fmtCol(r.YAPD, r.YAPDOK), fmtCol(r.VACA, r.VACAOK), fmtCol(r.Hybrid, r.HybridOK))
	}
	t.AddRow("", "", "", "Weighted Sum", "",
		fmt.Sprintf("%.2f", t6.YAPDSum), fmt.Sprintf("%.2f", t6.VACASum), fmt.Sprintf("%.2f", t6.HybridSum))
	return t.String()
}

// FigureSeries is a per-benchmark CPI-increase series (Figures 9/10).
type FigureSeries struct {
	Title      string
	Benchmarks []string
	Series     map[string][]float64 // scheme name -> per-benchmark %
}

// Figure9 returns the per-benchmark CPI increase for configuration
// 3-1-0 under YAPD (way off) and VACA (5-cycle way kept on; the Hybrid
// behaves identically here, Section 5.2).
func (e *PerfEvaluator) Figure9() FigureSeries {
	d := e.degradations(context.TODO(),
		keyOf(CacheConfig{WayCycles: []int{0, 4, 4, 4}, HRegionOff: -1}, 0),
		keyOf(CacheConfig{WayCycles: []int{5, 4, 4, 4}, HRegionOff: -1}, 0))
	return FigureSeries{
		Title:      "Figure 9: CPI increase, cache configuration 3-1-0",
		Benchmarks: e.Benchmarks(),
		Series:     map[string][]float64{"YAPD": d[0], "VACA": d[1]},
	}
}

// Figure10 returns the per-benchmark CPI increase for configuration
// 2-2-0 under VACA (YAPD cannot save it).
func (e *PerfEvaluator) Figure10() FigureSeries {
	return FigureSeries{
		Title:      "Figure 10: CPI increase, cache configuration 2-2-0",
		Benchmarks: e.Benchmarks(),
		Series: map[string][]float64{
			"VACA": e.Degradations(CacheConfig{WayCycles: []int{5, 5, 4, 4}, HRegionOff: -1}, 0),
		},
	}
}

// NaiveBinning returns the Section 4.5 numbers: the suite-average CPI
// increase when all loads take one and two extra cycles (the scheduler
// expecting the slower latency, so no bypass buffers are involved).
func (e *PerfEvaluator) NaiveBinning() (plusOne, plusTwo float64) {
	d := e.degradations(context.TODO(),
		keyOf(CacheConfig{WayCycles: []int{5, 5, 5, 5}, HRegionOff: -1}, 5),
		keyOf(CacheConfig{WayCycles: []int{6, 6, 6, 6}, HRegionOff: -1}, 6))
	return stats.Mean(d[0]), stats.Mean(d[1])
}

// RenderFigure renders a FigureSeries as labelled text bars.
func RenderFigure(f FigureSeries, width int) string {
	out := f.Title + "\n"
	schemes := make([]string, 0, len(f.Series))
	for name := range f.Series {
		schemes = append(schemes, name)
	}
	sort.Strings(schemes)
	maxV := 0.0
	for _, vs := range f.Series {
		for _, v := range vs {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	for _, name := range schemes {
		out += report.Series(name, f.Benchmarks, f.Series[name], maxV, width)
	}
	return out
}
