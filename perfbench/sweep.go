package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"time"

	"yieldcache"
	"yieldcache/internal/server"
)

// sweepShape is one of the paper-scale scenario shapes the sweep
// workload rotates through (copies of scenarios/*.json, kept here so the
// benchmark's inputs cannot drift with the scenario corpus).
type sweepShape struct {
	Name    string
	Req     server.SweepRequest
	Configs int
}

var sweepShapes = []sweepShape{
	{Name: "tech-node-scan", Configs: 12, Req: server.SweepRequest{Axes: []server.SweepAxis{
		{Param: "vdd", Values: []float64{1.1, 1.08, 1.05, 1.02}},
		{Param: "vt_nominal", Values: []float64{0.3, 0.32, 0.28}},
	}}},
	{Name: "k-m-grid", Configs: 6, Req: server.SweepRequest{Constraints: []server.SweepConstraintSpec{
		{Name: "nominal"}, {Name: "relaxed"}, {Name: "strict"},
		{Name: "k2.5-m1.5", DelaySigmaK: 2.5, LeakageMult: 1.5},
		{Name: "k1.5-m1.2", DelaySigmaK: 1.5, LeakageMult: 1.2},
		{Name: "k3.5-m2.5", DelaySigmaK: 3.5, LeakageMult: 2.5},
	}}},
	{Name: "geometry-frontier", Configs: 3, Req: server.SweepRequest{
		Geometries: []server.SweepGeometry{
			{Ways: 4, BanksPerWay: 4, RowsPerBank: 64, BitsPerRow: 128, PathsPerBank: 4},
			{Ways: 2, BanksPerWay: 4, RowsPerBank: 128, BitsPerRow: 128, PathsPerBank: 4},
			{Ways: 1, BanksPerWay: 4, RowsPerBank: 256, BitsPerRow: 128, PathsPerBank: 4},
		},
		Economics: &server.SweepEconomicsSpec{DegradedCPIPct: 5},
	}},
}

// sweepItem is one generated sweep request.
type sweepItem struct {
	Shape sweepShape
	Req   server.SweepRequest
	Body  []byte
}

// sweepMix yields the fixed shape rotation, each request with a fresh
// seed drawn from the benchmark seed, so the result cache never answers.
type sweepMix struct {
	rng   *rand.Rand
	chips int
	n     int
}

func newSweepMix(seed int64, chips int) *sweepMix {
	return &sweepMix{rng: rand.New(rand.NewSource(seed*104729 + 17)), chips: chips}
}

func (m *sweepMix) next() sweepItem {
	sh := sweepShapes[m.n%len(sweepShapes)]
	m.n++
	req := sh.Req
	req.Seed, req.Chips = 1+m.rng.Int63n(1<<52), m.chips
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return sweepItem{Shape: sh, Req: req, Body: body}
}

// sweepSpec is the facade spec the server resolves req to.
func sweepSpec(req server.SweepRequest) yieldcache.SweepSpec {
	spec := yieldcache.SweepSpec{Seed: req.Seed, N: req.Chips}
	for _, ax := range req.Axes {
		spec.Axes = append(spec.Axes, yieldcache.TechAxis{Param: ax.Param, Values: ax.Values})
	}
	for _, c := range req.Constraints {
		switch c.Name {
		case "nominal":
			spec.Constraints = append(spec.Constraints, yieldcache.Nominal())
		case "relaxed":
			spec.Constraints = append(spec.Constraints, yieldcache.Relaxed())
		case "strict":
			spec.Constraints = append(spec.Constraints, yieldcache.Strict())
		default:
			spec.Constraints = append(spec.Constraints, yieldcache.Constraints{
				Name: c.Name, DelaySigmaK: c.DelaySigmaK, LeakageMult: c.LeakageMult})
		}
	}
	for _, g := range req.Geometries {
		spec.Geometries = append(spec.Geometries, yieldcache.CacheGeometry{
			Ways: g.Ways, BanksPerWay: g.BanksPerWay, RowsPerBank: g.RowsPerBank,
			BitsPerRow: g.BitsPerRow, PathsPerBank: g.PathsPerBank})
	}
	return spec
}

// sweepCall is one sweep request with its outcome.
type sweepCall struct {
	Item  sweepItem
	Reply reply
	Resp  *server.SweepResponse
	Fail  string
}

// sendSweep posts one sweep and checks it: status, strict decoding,
// echoed seed and chips, the shape's config count, a non-empty Pareto
// frontier for every scheme, an uncached answer, and reuse statistics
// equal to the facade's plan for the same spec.
func sendSweep(c *http.Client, base string, it sweepItem) sweepCall {
	sc := sweepCall{Item: it, Reply: post(c, base+"/v1/sweep", it.Body)}
	if sc.Reply.Err != nil {
		sc.Fail = sc.Reply.Err.Error()
		return sc
	}
	var resp server.SweepResponse
	if err := decodeStrict(sc.Reply.Body, &resp); err != nil {
		sc.Fail = "decoding SweepResponse: " + err.Error()
		return sc
	}
	sc.Resp = &resp
	sc.Fail = checkSweep(it, &resp)
	return sc
}

func checkSweep(it sweepItem, resp *server.SweepResponse) string {
	name := it.Shape.Name
	switch {
	case resp.Seed != it.Req.Seed || resp.Chips != it.Req.Chips:
		return fmt.Sprintf("%s: echoed seed/chips %d/%d, sent %d/%d", name, resp.Seed, resp.Chips, it.Req.Seed, it.Req.Chips)
	case resp.Cached:
		return fmt.Sprintf("%s: a fresh seed was answered from the cache", name)
	case resp.Configs != it.Shape.Configs || len(resp.Results) != it.Shape.Configs:
		return fmt.Sprintf("%s: %d configs (%d results), want %d", name, resp.Configs, len(resp.Results), it.Shape.Configs)
	case !reflect.DeepEqual(resp.Schemes, schemeNames):
		return fmt.Sprintf("%s: schemes %v, want %v", name, resp.Schemes, schemeNames)
	}
	for _, s := range schemeNames {
		if len(resp.Frontiers[s]) == 0 {
			return fmt.Sprintf("%s: empty Pareto frontier for %s", name, s)
		}
	}
	plan, err := yieldcache.PlanSweep(sweepSpec(it.Req))
	if err != nil {
		return fmt.Sprintf("%s: planning the facade reference: %v", name, err)
	}
	if resp.Stats != plan.Stats() {
		return fmt.Sprintf("%s: stats %+v, the facade plans %+v", name, resp.Stats, plan.Stats())
	}
	return ""
}

// runSweepService is the sweep-service workload: one closed-loop client
// (a sweep already fans out across every CPU) cycling through the shapes.
func runSweepService(o options, rep *report) error {
	bin := o.binPath("yieldd")
	setup, err := setupSamples(bin, o.setupStarts)
	if err != nil {
		return err
	}
	d, took, err := startDaemon(bin)
	if err != nil {
		return err
	}
	setup = append(setup, took.Seconds())
	cl := newClient()
	mix := newSweepMix(o.seed, o.sweepChips)
	rss := sampleRSS(d.cmd.Process.Pid)
	t0 := time.Now()
	until := t0.Add(o.duration())
	var calls []sweepCall
	// Whole rotations only, so every shape weighs the same in the
	// latency distribution.
	for len(calls)%len(sweepShapes) != 0 || time.Now().Before(until) {
		calls = append(calls, sendSweep(cl, d.base, mix.next()))
	}
	window := time.Since(t0)
	rssSamples := rss.finish()
	cl.CloseIdleConnections()
	peak := d.stop()

	var lat []float64
	byShape := map[string][]float64{}
	configs := 0
	for _, c := range calls {
		x := tally(rep, c.Fail, c.Reply.Latency)
		lat = append(lat, x)
		byShape[c.Item.Shape.Name] = append(byShape[c.Item.Shape.Name], x)
		if c.Fail == "" {
			configs += c.Resp.Configs
		}
	}
	rep.Attempted = len(calls)
	cps := float64(configs) / window.Seconds()
	l := summarize(lat)
	rep.setup(setup)
	rep.rss(rssSamples, peak)
	rep.named("sweep_configs_per_s", cps, "configs/s", nil)
	sl := l
	sl.P50, sl.P95 = l.P50/1e3, l.P95/1e3
	rep.named("sweep_p50_s", sl.P50, "s", &sl)
	// The shapes' latencies differ several-fold, so the p50 over the
	// rotation sits inside one shape's cluster and misses the others.
	// The gated latency is the geometric mean of the per-shape p50s,
	// which every shape moves.
	var p50s []float64
	for _, sh := range sweepShapes {
		sl := summarize(byShape[sh.Name])
		rep.named("sweep_p50_ms."+sh.Name, sl.P50, "ms", &sl)
		p50s = append(p50s, sl.P50)
	}
	rep.gate(latencyMetric, geoMean(p50s))
	rep.gate(throughputMetric, cps)
	return nil
}
