package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"yieldcache/internal/workload"
)

// paperReference is cmd/paper's stdout at its defaults (2000 chips,
// seed 2006, 300k instructions), captured when this benchmark was
// defined. A run with those inputs must reproduce it byte for byte.
//
//go:embed testdata/paper-seed2006.txt
var paperReference []byte

const (
	paperDefaultChips = 2000
	paperDefaultInstr = 300_000
	paperDefaultSeed  = 2006
	// paperMargin is how long the paper runs may take beyond --seconds:
	// the set-up and counting runs and the last reproduction, which may
	// start just before the run length is spent, even when this machine
	// runs at half speed.
	paperMargin = 120 * time.Second
)

// Markers bracketing the CPI sections of cmd/paper's output: the Table 5
// title is printed just before Table 6's CPI simulation starts, and the
// naive-binning line right after the last CPI section ends.
const (
	markCPIStart = "Table 5:"
	markCPIEnd   = "Naive binning"
)

// paperPublished are the paper's values of Table 6's three weighted
// sums (YAPD, VACA, Hybrid) and the naive-binning +1/+2 cycle losses.
var paperPublished = []float64{1.08, 2.20, 1.83, 6.42, 12.62}

// modelErrPct is the mean relative error, in percent, of the reproduced
// values against paperPublished.
func modelErrPct(got []float64) float64 {
	var sum float64
	for i, p := range paperPublished {
		sum += math.Abs(got[i]-p) / p
	}
	return 100 * sum / float64(len(paperPublished))
}

var (
	weightedSumRE = regexp.MustCompile(`Weighted Sum\s+([0-9.]+)\s+([0-9.]+)\s+([0-9.]+)`)
	naiveRE       = regexp.MustCompile(`\+1 cycle ([0-9.]+)%.*\+2 cycles ([0-9.]+)%`)
)

// parsePaperValues extracts the five published-comparable values from
// cmd/paper's output.
func parsePaperValues(out []byte) ([]float64, error) {
	ws := weightedSumRE.FindSubmatch(out)
	nv := naiveRE.FindSubmatch(out)
	if ws == nil || nv == nil {
		return nil, fmt.Errorf("output lacks Table 6's weighted sums or the naive-binning line")
	}
	var vals []float64
	for _, b := range append(ws[1:], nv[1:]...) {
		v, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// runPaperRepro is the paper-repro workload: full cmd/paper runs, each
// in a fresh process, until the run length is spent (at least two, so
// the runs can be checked against each other).
func runPaperRepro(o options, rep *report) error {
	bin := o.binPath("paper")
	args := []string{"-seed", strconv.FormatInt(o.seed, 10),
		"-chips", strconv.Itoa(o.chips), "-instructions", strconv.Itoa(o.instructions)}

	ctx, cancel := context.WithTimeout(context.Background(), o.duration()+paperMargin)
	defer cancel()

	// Set-up: start until the first line, which cmd/paper prints once
	// the study population is built and the CPU model is ready.
	var setup []float64
	for i := 0; i < o.setupStarts; i++ {
		r, err := runProgram(ctx, bin, append(args, "-only", "figure1"), "")
		if err != nil {
			return err
		}
		setup = append(setup, r.Marks[""].Seconds())
	}

	evals, err := paperSuiteEvals(ctx, o, bin, args)
	if err != nil {
		return err
	}
	simMinstr := float64(evals*len(workload.SPEC2000())*o.instructions) / 1e6

	t0 := time.Now()
	var runs []programRun
	for len(runs) < 2 || time.Since(t0)+runs[0].Wall <= o.duration() {
		r, err := runProgram(ctx, bin, args, markCPIStart, markCPIEnd)
		if err != nil {
			rep.Attempted++
			rep.fail(err.Error())
			break
		}
		runs = append(runs, r)
	}
	rep.Attempted += len(runs)
	if len(runs) == 0 {
		return nil
	}

	var walls, rates, rss []float64
	peak := 0.0
	for i, r := range runs {
		fail := checkPaperOutput(o, r.Stdout, runs[0].Stdout, i)
		walls = append(walls, tally(rep, fail, r.Wall)/1e3)
		if fail != "" {
			continue
		}
		peak = max(peak, r.MaxRSSMB)
		rss = append(rss, r.RSS...)
		rates = append(rates, simMinstr/(r.Marks[markCPIEnd]-r.Marks[markCPIStart]).Seconds())
	}
	rep.setup(setup)
	rep.rss(rss, peak)
	wall := summarize(walls)
	rep.named("paper_wall_s", wall.P50, "s", &wall)
	rep.named("sim_minstr_per_s", median(rates), "Minstr/s", nil)
	if vals, err := parsePaperValues(runs[0].Stdout); err == nil {
		rep.named("model_err_pct", modelErrPct(vals), "%", nil)
	} else {
		rep.fail(err.Error())
	}
	// A seed's population decides how many cache configurations the CPI
	// sections simulate (11 or 12 for most seeds), so the gated latency
	// is the wall time per simulated configuration, which does not move
	// with the seed.
	perConfig := 1e3 * wall.P50 / float64(evals)
	rep.named("paper_wall_per_config_ms", perConfig, "ms", nil)
	rep.named("suite_evals", float64(evals), "count", nil)
	rep.gate(latencyMetric, perConfig)
	rep.gate(throughputMetric, median(rates))
	return nil
}

// checkPaperOutput returns "" when run i's stdout is correct: at the
// paper's defaults it must equal the captured reference byte for byte;
// at any inputs it must equal the first run's.
func checkPaperOutput(o options, out, first []byte, i int) string {
	atDefaults := o.seed == paperDefaultSeed && o.chips == paperDefaultChips && o.instructions == paperDefaultInstr
	switch {
	case atDefaults && !bytes.Equal(out, paperReference):
		return fmt.Sprintf("paper run %d: stdout differs from the seed-2006 reference", i)
	case !bytes.Equal(out, first):
		return fmt.Sprintf("paper run %d: stdout differs from run 0 with the same inputs", i)
	}
	return ""
}

// paperSuiteEvals counts the CPI-suite evaluations (distinct cache
// configurations simulated) a run with these inputs makes. The count
// depends on the population, not on the trace length, so it is read
// from a short counting run's own metrics with a tiny trace length.
func paperSuiteEvals(ctx context.Context, o options, bin string, args []string) (int, error) {
	path := filepath.Join(o.out, "paper-count-metrics.json")
	count := append(append([]string(nil), args...), "-instructions", "1000",
		"-only", "table6,figure9,figure10,naive", "-metrics-out", path)
	if _, err := runProgram(ctx, bin, count); err != nil {
		return 0, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, err
	}
	n := m.Counters["perf_config_cache_misses_total"]
	if n <= 0 {
		return 0, fmt.Errorf("counting run reported %d suite evaluations", n)
	}
	return int(n), nil
}
