package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"yieldcache"
	"yieldcache/internal/circuit"
	"yieldcache/internal/core"
	"yieldcache/internal/cpu"
	"yieldcache/internal/obs"
	"yieldcache/internal/server"
	"yieldcache/internal/sram"
	"yieldcache/internal/variation"
	"yieldcache/internal/workload"
)

// perLayerUnits are the per-layer contract metrics, all reported by the
// traced pass.
var perLayerUnits = map[string]string{
	// paper-repro replay: self time of each facade call cmd/paper makes,
	// and the perf layer's counters.
	"perf.table6_s":          "s",
	"perf.figures_s":         "s",
	"perf.naive_s":           "s",
	"core.tables_s":          "s",
	"facade.new_study_s":     "s",
	"facade.trend_s":         "s",
	"ssta.compare_s":         "s",
	"econ.economics_s":       "s",
	"report.render_s":        "s",
	"perf.wall_share_pct":    "%",
	"perf.suite_evals":       "count",
	"perf.trace_reuse_ratio": "ratio",
	"perf.config_hit_ratio":  "ratio",
	"perf.model_err_pct":     "%",
	// workload and cpu probe over all 24 profiles.
	"workload.gen_ns_per_instr": "ns/instr",
	"cpu.run_ns_per_instr":      "ns/instr",
	"cpu.pipeline_ns_per_instr": "ns/instr",
	"cpu.sim_cycles":            "count",
	"cpu.l1d_misses":            "count",
	"cpu.bypass_stalls":         "count",
	// sram probe.
	"sram.sample_ns_per_chip":          "ns/chip",
	"sram.eval_pair_ns_per_chip":       "ns/chip",
	"sram.eval_pair_delta_ns_per_chip": "ns/chip",
	// study-service replay.
	"facade.new_study_ms":    "ms",
	"core.build_self_ms":     "ms",
	"core.classify_ms":       "ms",
	"server.encode_ms":       "ms",
	"server.overhead_ms":     "ms",
	"server.queue_wait_ms":   "ms",
	"server.cache_hit_ratio": "ratio",
	"server.rejected":        "count",
	// sweep-service replay.
	"core.plan_sweep_ms":       "ms",
	"core.run_sweep_s":         "s",
	"server.sweep_overhead_ms": "ms",
	"core.full_builds":         "count",
	"core.delta_builds":        "count",
	// the traced wall time minus the untraced wall time of the replays.
	"trace.overhead_s": "s",
}

// buildChunk is how many kernel batches the sram probe times between
// two of its core builds.
const buildChunk = 25

// perfSeed is the trace seed cmd/paper's PerfEvaluator uses (its
// default), so the probe simulates the very traces a paper run does.
const perfSeed = 1

// replayOutcome is what one in-process replay measured.
type replayOutcome struct {
	attempted int
	fails     []string
	metrics   map[string]float64 // per-layer contract metrics
	extra     map[string]float64 // context printed with the report
}

func (r *replayOutcome) fail(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

type replayFunc func(o options, rec *recorder, root int) (replayOutcome, error)

// runTraced is the traced pass. It is the same for every workload: it
// probes the cpu/workload and sram layers directly, then replays a
// sample of each workload in-process, once untraced and once traced
// (the wall-time difference is the tracing overhead), so every
// per-layer metric is measured in every traced run.
func runTraced(o options, rep *report) error {
	obs.Enable() // the perf_config_cache_* counters are read from it
	rec := newRecorder()
	set := rep.layer

	probe := rec.begin("probe", 0, 0)
	probeCPU(o, rec, probe, set)
	probeSRAM(o, rec, probe, set)
	rec.end(probe)

	var overhead time.Duration
	roots := map[string]int{}
	for _, rp := range []struct {
		name string
		run  replayFunc
	}{
		{"paper-repro", replayPaper},
		{"study-service", replayStudy},
		{"sweep-service", replaySweep},
	} {
		t0 := time.Now()
		if _, err := rp.run(o, nil, 0); err != nil {
			return err
		}
		untraced := time.Since(t0)
		root := rec.begin(rp.name, 0, 0)
		t0 = time.Now()
		out, err := rp.run(o, rec, root)
		if err != nil {
			return err
		}
		overhead += time.Since(t0) - untraced
		rec.end(root)
		roots[rp.name] = root
		rep.Attempted += out.attempted
		for _, f := range out.fails {
			rep.fail(f)
		}
		for k, v := range out.metrics {
			set(k, v)
		}
		for k, v := range out.extra {
			rep.extra(k, v)
		}
	}
	set("trace.overhead_s", overhead.Seconds())

	spans := rec.snapshot()
	self := selfTimes(spans)
	rep.Layers = map[string][]layerRow{}
	for _, s := range spans {
		if s.Parent == 0 {
			rep.Layers[s.Name] = selfTable(spans, self, s.ID)
		}
	}
	paper := rep.Layers["paper-repro"]
	var perf float64
	for _, name := range []string{"perf.table6", "perf.figures", "perf.naive", "core.tables",
		"facade.new_study", "facade.trend", "ssta.compare", "econ.economics", "report.render"} {
		v := rowSelfMS(paper, name) / 1e3
		set(name+"_s", v)
		if strings.HasPrefix(name, "perf.") {
			perf += v
		}
	}
	for _, s := range spans {
		if s.ID == roots["paper-repro"] {
			set("perf.wall_share_pct", 100*perf/s.dur().Seconds())
		}
	}

	f, err := os.Create(filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed)))
	if err != nil {
		return err
	}
	defer f.Close()
	return writeChromeTrace(f, spans)
}

func rowSelfMS(rows []layerRow, name string) float64 {
	for _, r := range rows {
		if r.Name == name {
			return r.SelfMS
		}
	}
	return 0
}

// probeCPU times trace generation alone and full CPU simulation (which
// includes generation) at the baseline and the 5-4-4-4 L1D, over every
// profile at the paper's trace length, and sums the simulated event
// counts, which are exact.
func probeCPU(o options, rec *recorder, root int, set func(string, float64)) {
	profiles := workload.SPEC2000()
	n := o.instructions
	gen := rec.do("workload.generate", root, func() {
		for _, p := range profiles {
			g := workload.NewGenerator(p, perfSeed)
			for i := 0; i < n; i++ {
				g.Next()
			}
		}
	})
	configs := []cpu.Config{
		cpu.DefaultConfig().WithL1D(nil, -1, 0),
		cpu.DefaultConfig().WithL1D([]int{5, 4, 4, 4}, -1, 0),
	}
	var cycles, misses, stalls uint64
	run := rec.do("cpu.run", root, func() {
		for _, cfg := range configs {
			for _, p := range profiles {
				r := cpu.Run(workload.NewGenerator(p, perfSeed), n, cfg)
				cycles += r.Cycles
				misses += r.L1DMisses
				stalls += r.BypassStalls
			}
		}
	})
	genNS := float64(gen) / float64(len(profiles)*n)
	runNS := float64(run) / float64(len(configs)*len(profiles)*n)
	set("workload.gen_ns_per_instr", genNS)
	set("cpu.run_ns_per_instr", runNS)
	set("cpu.pipeline_ns_per_instr", runNS-genNS)
	set("cpu.sim_cycles", float64(cycles))
	set("cpu.l1d_misses", float64(misses))
	set("cpu.bypass_stalls", float64(stalls))
}

// probeSRAM drives the measurement kernel on one core the way the
// builds do, batch by batch: a study build samples a batch of chips and
// evaluates both cache organisations from its draws; a sweep's delta
// build re-evaluates retained draws, here under a 2% lower supply
// voltage (the tech-node-scan sweep's axis). Each round also builds as
// many chips' population pairs with core on one worker, in chunks of
// buildChunk batches interleaved with the kernel calls, so both see the
// same machine. A round's build time minus its sampling and evaluation
// is core's own share of a build. Each figure is the median of five
// rounds.
func probeSRAM(o options, rec *recorder, root int, set func(string, float64)) {
	tech := circuit.PTM45()
	sampler := variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), o.seed)
	ev := sram.NewModel(tech, false).NewEvaluator(sampler.NewScratch())
	defer ev.Release()
	low := tech
	low.Vdd *= 0.98
	evLow := sram.NewModel(low, false).NewEvaluator(sampler.NewScratch())
	defer evLow.Release()
	parts := sram.DiffTech(tech, low)

	chips := o.chips
	batches := (chips + sram.BatchWidth - 1) / sram.BatchWidth
	ids := make([][]int, batches) // chip ids of each batch
	for j := 0; j < chips; j++ {
		ids[j/sram.BatchWidth] = append(ids[j/sram.BatchWidth], j)
	}
	batch := func(k int) []int { return ids[k] }
	meas := func() [][]*sram.CacheMeasurement {
		out := make([][]*sram.CacheMeasurement, batches)
		for k := range out {
			for range ids[k] {
				out[k] = append(out[k], new(sram.CacheMeasurement))
			}
		}
		return out
	}
	reg, hor, reg2, hor2 := meas(), meas(), meas(), meas()

	var sample, pair, delta []float64
	var buildSelf []float64
	for round := 0; round < 5; round++ {
		// A study build: one reused draw set, sampled and evaluated per
		// batch (sram's MeasurePairBatch).
		var ts, tp, td, tb time.Duration
		ds := new(sram.DrawSet)
		pending := 0 // chips sampled since the last core build
		for k := range reg {
			ts += rec.do("sram.sample", root, func() { ev.Sample(batch(k), ds) })
			tp += rec.do("sram.eval_pair", root, func() { ev.EvalPair(ds, reg[k], hor[k], nil) })
			if pending += len(ids[k]); (k+1)%buildChunk == 0 || k == batches-1 {
				cfg := core.PopulationConfig{N: pending, Seed: o.seed + int64(k), Workers: 1}
				tb += rec.do("core.build_pair", root, func() { core.BuildPopulationPair(cfg) })
				pending = 0
			}
		}
		// A sweep's delta base keeps every batch's draws and leakage
		// aggregates (core's DeltaBuilder), then re-evaluates them.
		draws := make([]*sram.DrawSet, batches)
		leaks := make([]*sram.LeakState, batches)
		rec.do("sram.delta_base", root, func() {
			for k := range draws {
				draws[k], leaks[k] = new(sram.DrawSet), new(sram.LeakState)
				ev.Sample(batch(k), draws[k])
				ev.EvalPair(draws[k], reg[k], hor[k], leaks[k])
			}
		})
		for k, ds := range draws {
			td += rec.do("sram.eval_pair_delta", root, func() {
				evLow.EvalPairDelta(ds, parts, reg[k], leaks[k], reg2[k], hor2[k])
			})
		}
		sample = append(sample, float64(ts)/float64(chips))
		pair = append(pair, float64(tp)/float64(chips))
		delta = append(delta, float64(td)/float64(chips))
		buildSelf = append(buildSelf, ms(tb-ts-tp))
	}
	set("sram.sample_ns_per_chip", median(sample))
	set("sram.eval_pair_ns_per_chip", median(pair))
	set("sram.eval_pair_delta_ns_per_chip", median(delta))
	set("core.build_self_ms", median(buildSelf))
}

// replayPaper makes cmd/paper's facade calls in its order, each section
// in a span and every rendering in a report.render child span.
func replayPaper(o options, rec *recorder, root int) (replayOutcome, error) {
	out := replayOutcome{attempted: 1, metrics: map[string]float64{}}
	counter := func(name string) float64 { return float64(obs.C(name).Value()) }
	hits0, misses0, coal0 := counter("perf_config_cache_hits_total"),
		counter("perf_config_cache_misses_total"), counter("perf_config_cache_coalesced_total")
	runs0 := counter("cpu_runs_total")

	var sink []byte
	section := func(name string, f func(render func(string))) {
		id := rec.begin(name, root, 0)
		f(func(s string) {
			r := rec.begin("report.render", id, 0)
			sink = append(sink[:0], s...)
			rec.end(r)
		})
		rec.end(id)
	}
	var study *yieldcache.Study
	rec.do("facade.new_study", root, func() {
		study = yieldcache.NewStudy(yieldcache.StudyConfig{Chips: o.chips, Seed: o.seed})
	})
	perf := yieldcache.NewPerfEvaluator(yieldcache.PerfConfig{Instructions: o.instructions})
	section("core.tables", func(render func(string)) {
		pts := study.Figure8()
		render(yieldcache.RenderFigure8(pts, 72, 24))
		t2 := study.Table2()
		render(yieldcache.RenderBreakdown("Table 2", t2))
		t3 := study.Table3()
		render(yieldcache.RenderBreakdown("Table 3", t3))
		t4 := study.Table4()
		render(yieldcache.RenderTotals("Table 4", t4))
		t5 := study.Table5()
		render(yieldcache.RenderTotals("Table 5", t5))
	})
	var t6 yieldcache.Table6
	section("perf.table6", func(render func(string)) {
		t6 = study.Table6(perf)
		render(yieldcache.RenderTable6(t6))
	})
	section("perf.figures", func(render func(string)) {
		f9 := perf.Figure9()
		render(yieldcache.RenderFigure(f9, 50))
		f10 := perf.Figure10()
		render(yieldcache.RenderFigure(f10, 50))
	})
	var p1, p2 float64
	section("perf.naive", func(func(string)) { p1, p2 = perf.NaiveBinning() })
	var err error
	section("facade.trend", func(render func(string)) {
		var rows []yieldcache.NodeYield
		if rows, err = yieldcache.TechnologyTrend(o.chips/2, o.seed); err == nil {
			render(yieldcache.RenderTrend(rows))
		}
	})
	if err != nil {
		return out, err
	}
	section("ssta.compare", func(render func(string)) {
		c := study.CompareSSTA()
		render(yieldcache.RenderSSTA(c))
	})
	section("econ.economics", func(render func(string)) {
		var rows []yieldcache.EconResult
		if rows, err = study.Economics(perf, yieldcache.DefaultCostModel()); err == nil {
			render(yieldcache.RenderEconomics(rows))
		}
	})
	if err != nil {
		return out, err
	}

	// Rounded as cmd/paper prints them, so this equals the end-to-end
	// model_err_pct of a paper-repro run with the same seed.
	var vals []float64
	for _, v := range []float64{t6.YAPDSum, t6.VACASum, t6.HybridSum, p1, p2} {
		r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 2, 64), 64)
		vals = append(vals, r)
	}
	hits := counter("perf_config_cache_hits_total") - hits0
	evals := counter("perf_config_cache_misses_total") - misses0
	coal := counter("perf_config_cache_coalesced_total") - coal0
	// Every cpu.Run generates its trace afresh, and the evaluator
	// simulates one trace seed per profile, so the distinct traces are
	// the profiles and the traces generated are the runs.
	generated := counter("cpu_runs_total") - runs0
	out.metrics["perf.model_err_pct"] = modelErrPct(vals)
	out.metrics["perf.suite_evals"] = evals
	out.metrics["perf.trace_reuse_ratio"] = float64(len(workload.SPEC2000())) / generated
	out.metrics["perf.config_hit_ratio"] = hits / (hits + evals + coal)
	return out, nil
}

// queueWait fetches the server's own queue wait for a job.
func queueWait(c *http.Client, base, id string) (float64, error) {
	var jd server.JobDetail
	if err := getJSON(c, base+"/v1/jobs/"+id, &jd); err != nil {
		return 0, err
	}
	return jd.QueueWaitMS, nil
}

// reqID numbers the requests of one replay so each client's are distinct.
func reqID(client, k int) int { return 1000*client + k + 1 }

// directLane is the Chrome-trace lane of client 0's direct facade
// replay (client c uses directLane+c), clear of every request's lane.
const directLane = 1 << 20

// replayStudy sends the first block of ten requests of each client's
// study mix to an in-process server with yieldd's default configuration.
// Then it repeats every cold request's facade work directly, one
// goroutine per client like the server's concurrent builds, so the
// direct calls meet the same CPU contention. Each cold request span
// gets child spans for the server's own queue wait and build time and
// for the directly measured response assembly, so its self time is
// server.overhead_ms: the remainder left for decode, admission, encode
// and transport.
//
// The accounting check uses only parts measured on their own: the
// server's queue wait, the direct build and assembly, and the JSON
// round trip. What they leave of the cold p50 is reported as
// unexplained.
func replayStudy(o options, rec *recorder, root int) (replayOutcome, error) {
	out := replayOutcome{metrics: map[string]float64{"server.rejected": 0}}
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	calls := runStudyLoad(ts.URL, o.seed, o.chips, func(k int) bool { return k < mixBlock },
		func(cl *http.Client, client, k int, sc *studyCall) {
			r := sc.Reply
			sc.Span = rec.add("server.request", root, reqID(client, k), r.Sent, r.Sent.Add(r.Latency))
			if sc.Fail == "" && !sc.Item.Repeat {
				q, err := queueWait(cl, ts.URL, r.JobID)
				if err != nil {
					sc.Fail = "job detail: " + err.Error()
				}
				sc.QueueMS = q
			}
		})
	ts.Close()

	var encode []float64
	cold := make([][]*studyCall, studyClients) // each client's passing cold calls, in order
	ok, cached := 0, 0
	for i := range calls {
		sc := &calls[i]
		out.attempted++
		if sc.Reply.Status == http.StatusTooManyRequests || sc.Reply.Status == http.StatusGatewayTimeout {
			out.metrics["server.rejected"]++
		}
		if sc.Fail != "" {
			out.fail("study replay: %s", sc.Fail)
			continue
		}
		ok++
		t0 := time.Now()
		var v server.StudyResponse
		err := json.Unmarshal(sc.Reply.Body, &v)
		if err == nil {
			_, err = json.Marshal(&v)
		}
		encode = append(encode, ms(time.Since(t0)))
		if err != nil {
			out.fail("study replay: JSON round trip: %v", err)
		}
		if sc.Item.Repeat {
			cached++
			continue
		}
		cold[sc.Client] = append(cold[sc.Client], sc)
	}

	// Each cold request's facade work, on its own.
	type direct struct {
		newStudy, classify float64
		fail               string
	}
	done := make([][]direct, studyClients)
	var wg sync.WaitGroup
	for c, scs := range cold {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := rec.begin("study.direct", root, directLane+c)
			defer rec.end(lane)
			for _, sc := range scs {
				req := sc.Item.Req
				cons := studyConstraints(req)
				var s *yieldcache.Study
				var d direct
				d.newStudy = ms(rec.do("facade.new_study", lane, func() {
					s = yieldcache.NewStudy(yieldcache.StudyConfig{Chips: req.Chips, Seed: req.Seed, Constraints: &cons})
				}))
				// The server assembles the scatter and saved
				// configurations whether or not the response carries them.
				all := req
				all.IncludeScatter, all.IncludeSavedConfigs = true, true
				d.classify = ms(rec.do("core.classify", lane, func() { expectedStudy(s, all) }))
				d.fail = compareStudy(sc.Resp, expectedStudy(s, req))
				done[c] = append(done[c], d)
			}
		}()
	}
	wg.Wait()

	var newStudy, classify, overhead, queue, build, coldLat []float64
	for c, scs := range cold {
		for i, sc := range scs {
			d := done[c][i]
			if d.fail != "" {
				out.fail("study replay: %s", d.fail)
			}
			l, q, b := ms(sc.Reply.Latency), sc.QueueMS, sc.Resp.ElapsedMS
			newStudy, classify = append(newStudy, d.newStudy), append(classify, d.classify)
			coldLat, queue, build = append(coldLat, l), append(queue, q), append(build, b)
			overhead = append(overhead, l-q-b-d.classify)
			at := func(off float64) time.Time { return sc.Reply.Sent.Add(time.Duration(off * 1e6)) }
			rec.add("server.queue_wait", sc.Span, 0, at(0), at(q))
			rec.add("server.build", sc.Span, 0, at(q), at(q+b))
			rec.add("server.assemble", sc.Span, 0, at(q+b), at(q+b+d.classify))
		}
	}
	if len(newStudy) == 0 || cached == 0 {
		return out, fmt.Errorf("study replay: %d cold and %d cached answers; need both", len(newStudy), cached)
	}
	q, ns, c, enc, p50 := median(queue), median(newStudy), median(classify), median(encode), median(coldLat)
	m := out.metrics
	m["facade.new_study_ms"] = ns
	m["core.classify_ms"] = c
	m["server.encode_ms"] = enc
	m["server.overhead_ms"] = median(overhead)
	m["server.queue_wait_ms"] = q
	m["server.cache_hit_ratio"] = float64(cached) / float64(ok)
	accounted := q + ns + c + enc
	out.extra = map[string]float64{
		"study.replay_cold_p50_ms":         p50,
		"study.replay_server_build_ms":     median(build),
		"study.replay_accounted_ms":        accounted,
		"study.replay_unexplained_ms":      p50 - accounted,
		"study.replay_accounted_p50_share": accounted / p50,
	}
	return out, nil
}

// replaySweep sends one rotation of the sweep shapes to an in-process
// server, then plans and runs each spec directly. As for studies, each
// request span gets the server's queue wait and sweep time as children,
// so its self time is the server's sweep overhead.
func replaySweep(o options, rec *recorder, root int) (replayOutcome, error) {
	out := replayOutcome{metrics: map[string]float64{}}
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := newClient()
	defer cl.CloseIdleConnections()

	mix := newSweepMix(o.seed, o.sweepChips)
	var overhead []float64
	var plan, run time.Duration
	for i := range sweepShapes {
		it := mix.next()
		out.attempted++
		sc := sendSweep(cl, ts.URL, it)
		r := sc.Reply
		span := rec.add("server.sweep", root, i+1, r.Sent, r.Sent.Add(r.Latency))
		if sc.Fail != "" {
			out.fail("sweep replay: %s", sc.Fail)
			continue
		}
		q, err := queueWait(cl, ts.URL, r.JobID)
		if err != nil {
			out.fail("sweep replay: job detail: %v", err)
			continue
		}
		b := sc.Resp.ElapsedMS
		overhead = append(overhead, ms(r.Latency)-q-b)
		at := func(off float64) time.Time { return r.Sent.Add(time.Duration(off * 1e6)) }
		rec.add("server.queue_wait", span, 0, at(0), at(q))
		rec.add("server.run_sweep", span, 0, at(q), at(q+b))

		var p *yieldcache.SweepPlan
		plan += rec.do("core.plan_sweep", root, func() { p, err = yieldcache.PlanSweep(sweepSpec(it.Req)) })
		if err != nil {
			return out, err
		}
		var evals []yieldcache.SweepEval
		run += rec.do("core.run_sweep", root, func() {
			// Parallel matches yieldd's default -workers.
			opt := yieldcache.SweepOptions{Parallel: 2}
			if evals, err = yieldcache.RunSweep(context.Background(), p, opt); err == nil {
				yieldcache.SweepFrontiers(evals)
			}
		})
		if err != nil {
			return out, err
		}
		st := p.Stats()
		out.metrics["core.full_builds"] += float64(st.FullBuilds)
		out.metrics["core.delta_builds"] += float64(st.DeltaBuilds)
		if len(evals) != it.Shape.Configs {
			out.fail("sweep replay: %s: %d direct evaluations, want %d", it.Shape.Name, len(evals), it.Shape.Configs)
		}
	}
	if len(overhead) == 0 {
		return out, fmt.Errorf("sweep replay: no sweep succeeded")
	}
	out.metrics["core.plan_sweep_ms"] = ms(plan)
	out.metrics["core.run_sweep_s"] = run.Seconds()
	out.metrics["server.sweep_overhead_ms"] = median(overhead)
	return out, nil
}
