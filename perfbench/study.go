package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"time"

	"yieldcache"
	"yieldcache/internal/server"
)

// The study-service mix: 70% cold studies and 30% repeats of a body
// this client already had answered (result-cache hits). Every block of
// ten requests holds exactly three repeats at seeded positions, so the
// share, and with it the throughput, does not drift with the seed.
const (
	studyClients    = 2
	mixBlock        = 10
	repeatsPerBlock = 3
	// recentCold bounds how far back a repeat reaches, so with both
	// clients inserting, the repeated result is still among the
	// server's 128 cached studies (evicted oldest-first).
	recentCold = 32
)

var schemeNames = []string{"YAPD", "VACA", "Hybrid"}

// studyItem is one generated request.
type studyItem struct {
	Req    server.StudyRequest
	Body   []byte
	Repeat bool
}

// studyMix generates one client's request stream from the benchmark
// seed. Each client has its own stream, so a repeat always names a body
// whose answer that client already holds.
type studyMix struct {
	rng   *rand.Rand
	chips int
	cold  []studyItem
	plan  []bool // repeat flags for the rest of the current block
}

func newStudyMix(seed int64, client, chips int) *studyMix {
	return &studyMix{rng: rand.New(rand.NewSource(seed*7919 + int64(client) + 1)), chips: chips}
}

func (m *studyMix) next() studyItem {
	if len(m.plan) == 0 {
		// The first request has nothing to repeat, so the first block
		// places its repeats after it.
		first := 0
		if len(m.cold) == 0 {
			first = 1
		}
		m.plan = make([]bool, mixBlock)
		for _, i := range m.rng.Perm(mixBlock - first)[:repeatsPerBlock] {
			m.plan[first+i] = true
		}
	}
	repeat := m.plan[0]
	m.plan = m.plan[1:]
	if repeat {
		it := m.cold[len(m.cold)-1-m.rng.Intn(min(len(m.cold), recentCold))]
		it.Repeat = true
		return it
	}
	req := server.StudyRequest{Seed: 1 + m.rng.Int63n(1<<52), Chips: m.chips}
	switch m.rng.Intn(4) {
	case 0:
		req.Constraints = "nominal"
	case 1:
		req.Constraints = "relaxed"
	case 2:
		req.Constraints = "strict"
	default:
		req.CustomConstraints = &server.CustomConstraints{
			DelaySigmaK: math.Round(150+200*m.rng.Float64()) / 100,
			LeakageMult: math.Round(120+130*m.rng.Float64()) / 100,
		}
	}
	// Mask 0 omits the field, which asks for every scheme.
	mask := m.rng.Intn(8)
	for i, name := range schemeNames {
		if mask&(1<<i) != 0 {
			req.Schemes = append(req.Schemes, name)
		}
	}
	if m.rng.Intn(5) == 0 {
		if m.rng.Intn(2) == 0 {
			req.IncludeScatter = true
		} else {
			req.IncludeSavedConfigs = true
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	it := studyItem{Req: req, Body: body}
	m.cold = append(m.cold, it)
	return it
}

// studyCall is one request of the study mix with its outcome.
type studyCall struct {
	Item  studyItem
	Reply reply
	Resp  *server.StudyResponse
	Fail  string // first failed check; "" when the call passed
	// Client is the index of the closed-loop client that sent it.
	Client int

	// Filled by the traced pass only: the request's span and the
	// server's own queue wait for a cold study.
	Span    int
	QueueMS float64
}

// sendStudy posts one study and runs the checks that need only the
// response: status, strict decoding, echoed seed and chips, and a cached
// flag that matches the request's class.
func sendStudy(c *http.Client, base string, it studyItem) studyCall {
	sc := studyCall{Item: it, Reply: post(c, base+"/v1/study", it.Body)}
	if sc.Reply.Err != nil {
		sc.Fail = sc.Reply.Err.Error()
		return sc
	}
	var resp server.StudyResponse
	if err := decodeStrict(sc.Reply.Body, &resp); err != nil {
		sc.Fail = "decoding StudyResponse: " + err.Error()
		return sc
	}
	sc.Resp = &resp
	switch {
	case resp.Seed != it.Req.Seed || resp.Chips != it.Req.Chips:
		sc.Fail = fmt.Sprintf("echoed seed/chips %d/%d, sent %d/%d", resp.Seed, resp.Chips, it.Req.Seed, it.Req.Chips)
	case resp.Cached != it.Repeat:
		sc.Fail = fmt.Sprintf("cached=%v for a repeat=%v request", resp.Cached, it.Repeat)
	}
	return sc
}

// runStudyLoad drives the closed loop: each client sends its next
// request as soon as the previous one is answered, while more(k) holds
// for its k-th request. after, when set, runs on the client's goroutine
// after each call.
func runStudyLoad(base string, seed int64, chips int, more func(k int) bool,
	after func(cl *http.Client, client, k int, sc *studyCall)) []studyCall {
	var mu sync.Mutex
	var calls []studyCall
	var wg sync.WaitGroup
	for c := 0; c < studyClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			mix := newStudyMix(seed, c, chips)
			for k := 0; more(k); k++ {
				sc := sendStudy(cl, base, mix.next())
				sc.Client = c
				if after != nil {
					after(cl, c, k, &sc)
				}
				mu.Lock()
				calls = append(calls, sc)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return calls
}

// runStudyService is the study-service workload.
func runStudyService(o options, rep *report) error {
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
	rss := sampleRSS(d.cmd.Process.Pid)
	t0 := time.Now()
	until := t0.Add(o.duration())
	calls := runStudyLoad(d.base, o.seed, o.chips, func(int) bool { return time.Now().Before(until) }, nil)
	window := time.Since(t0)
	rssSamples := rss.finish()
	peak := d.stop()

	// Tables are checked against the facade after the daemon has
	// stopped, so the check does not compete with the measured load.
	checkStudyTables(calls)

	var cold, cached []float64
	ok := 0
	for _, c := range calls {
		lat := tally(rep, c.Fail, c.Reply.Latency)
		if c.Fail == "" {
			ok++
		}
		if c.Item.Repeat {
			cached = append(cached, lat)
		} else {
			cold = append(cold, lat)
		}
	}
	rep.Attempted = len(calls)
	rps := float64(ok) / window.Seconds()
	coldL, cachedL := summarize(cold), summarize(cached)
	rep.setup(setup)
	rep.rss(rssSamples, peak)
	rep.named("study_rps", rps, "req/s", nil)
	rep.named("study_cold_p50_ms", coldL.P50, "ms", &coldL)
	rep.named("study_cold_p95_ms", coldL.P95, "ms", &coldL)
	rep.named("study_cached_p50_ms", cachedL.P50, "ms", &cachedL)
	rep.gate(latencyMetric, coldL.P50)
	rep.gate(throughputMetric, rps)
	return nil
}

// checkStudyTables compares every passing call's tables with the
// in-process facade result for the same parameters. Each population is
// built once and dropped before the next, so memory stays flat however
// many studies the run answered.
func checkStudyTables(calls []studyCall) {
	byKey := map[string][]int{}
	var keys []string
	for i, c := range calls {
		if c.Fail != "" {
			continue
		}
		k := string(c.Item.Body)
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	for _, k := range keys {
		req := calls[byKey[k][0]].Item.Req
		cons := studyConstraints(req)
		s := yieldcache.NewStudy(yieldcache.StudyConfig{Chips: req.Chips, Seed: req.Seed, Constraints: &cons})
		want := expectedStudy(s, req)
		for _, i := range byKey[k] {
			calls[i].Fail = compareStudy(calls[i].Resp, want)
		}
	}
}

func studyConstraints(req server.StudyRequest) yieldcache.Constraints {
	if c := req.CustomConstraints; c != nil {
		return yieldcache.Constraints{Name: "custom", DelaySigmaK: c.DelaySigmaK, LeakageMult: c.LeakageMult}
	}
	switch req.Constraints {
	case "relaxed":
		return yieldcache.Relaxed()
	case "strict":
		return yieldcache.Strict()
	}
	return yieldcache.Nominal()
}

// compareStudy returns "" when the response's tables equal want.
func compareStudy(resp *server.StudyResponse, want server.StudyResponse) string {
	got := *resp
	got.Cached, got.ElapsedMS, got.Estimate, got.EarlyStop = false, 0, nil, false
	for _, bd := range []*server.Breakdown{&got.Regular, &got.Horizontal} {
		bd.YieldCIs = nil
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("study seed %d: response tables differ from the in-process facade result", want.Seed)
	}
	return ""
}

// expectedStudy is the response the server must give for req, built
// from the facade's study (interval bounds, the streaming estimate and
// timings excluded).
func expectedStudy(s *yieldcache.Study, req server.StudyRequest) server.StudyResponse {
	names := req.Schemes
	if len(names) == 0 {
		names = schemeNames
	}
	var reg, hor []yieldcache.Scheme
	for _, n := range names {
		switch n {
		case "YAPD":
			reg, hor = append(reg, yieldcache.SchemeYAPD()), append(hor, yieldcache.SchemeHYAPD())
		case "VACA":
			reg, hor = append(reg, yieldcache.SchemeVACA()), append(hor, yieldcache.SchemeVACA())
		case "Hybrid":
			reg, hor = append(reg, yieldcache.SchemeHybrid(false)), append(hor, yieldcache.SchemeHybrid(true))
		}
	}
	extra := []yieldcache.Constraints{yieldcache.Relaxed(), yieldcache.Strict()}
	out := server.StudyResponse{
		Seed:  req.Seed,
		Chips: req.Chips,
		Constraints: server.ConstraintsInfo{
			Name: s.Cons.Name, DelaySigmaK: s.Cons.DelaySigmaK, LeakageMult: s.Cons.LeakageMult,
		},
		Limits:           server.LimitsInfo{DelayPS: s.Limits.DelayPS, LeakageW: s.Limits.LeakageW},
		Regular:          breakdownOf(s.Breakdown(reg...)),
		Horizontal:       breakdownOf(s.BreakdownHorizontal(hor...)),
		RegularTotals:    totalsOf(s.Totals(extra, reg...)),
		HorizontalTotals: totalsOf(s.TotalsHorizontal(extra, hor...)),
	}
	if req.IncludeScatter {
		for _, p := range s.Figure8() {
			out.Scatter = append(out.Scatter, server.ScatterPoint{
				LatencyPS: p.LatencyPS, NormalizedLeakage: p.NormalizedLeakage, Reason: p.Reason.String(),
			})
		}
	}
	if req.IncludeSavedConfigs {
		for _, sc := range s.SavedConfigurations() {
			out.SavedConfigs = append(out.SavedConfigs, server.SavedConfig{
				N4: sc.Key.N4, N5: sc.Key.N5, N6: sc.Key.N6, LeakageLimited: sc.LeakageLimited, Chips: sc.Chips,
			})
		}
	}
	return out
}

func breakdownOf(bd yieldcache.LossBreakdown) server.Breakdown {
	out := server.Breakdown{
		N:         bd.N,
		BaseTotal: bd.BaseTotal,
		Totals:    map[string]int{},
		Yields:    map[string]float64{"base": bd.Yield(-1)},
	}
	for i, s := range bd.Schemes {
		out.Totals[s.Scheme] = s.Total
		out.Yields[s.Scheme] = bd.Yield(i)
	}
	for _, r := range yieldcache.AllLossReasons() {
		row := server.BreakdownRow{Reason: r.String(), Base: bd.Base[r], Remaining: map[string]int{}}
		for _, s := range bd.Schemes {
			row.Remaining[s.Scheme] = s.ByReason[r]
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func totalsOf(rows []yieldcache.ConstraintTotals) []server.ConstraintTotals {
	out := []server.ConstraintTotals{}
	for _, r := range rows {
		row := server.ConstraintTotals{Constraint: r.Constraint.Name, Base: r.Base, Totals: map[string]int{}}
		for _, s := range r.Schemes {
			row.Totals[s.Scheme] = s.Total
		}
		out = append(out, row)
	}
	return out
}
