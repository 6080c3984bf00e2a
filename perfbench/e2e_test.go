package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// programs builds cmd/paper and cmd/yieldd from the enclosing module
// once per test binary.
func programs(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the programs under test")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "perfbench-bin")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/paper", "./cmd/yieldd")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%v: %s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building the programs: %v", buildErr)
	}
	return binDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// tiny returns options for a run at test sizes.
func tiny(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 3, seconds: 1, trace: trace,
		bin: programs(t), out: t.TempDir(),
		chips: 64, instructions: 3000, sweepChips: 48,
		setupStarts: 2,
	}
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runTiny runs the benchmark and decodes the last line of its stdout.
func runTiny(t *testing.T, o options) resultLine {
	t.Helper()
	rep := newReport(o)
	var err error
	if o.trace {
		err = runTraced(o, rep)
	} else {
		err = workloads[o.workload](o, rep)
	}
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rep.finish(o, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result %+v; failures: %v", res, rep.Failures)
	}
	return res
}

func TestWorkloadsEndToEnd(t *testing.T) {
	for _, wl := range sortedKeys(workloads) {
		t.Run(wl, func(t *testing.T) {
			res := runTiny(t, tiny(t, wl, false))
			if got, want := sortedKeys(res.Metrics), sortedKeys(endToEndUnits); len(got) != len(want) {
				t.Fatalf("metrics %v, want %v", got, want)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 || m.Unit != endToEndUnits[name] {
					t.Errorf("%s = %+v", name, m)
				}
			}
		})
	}
}

func TestTracedPass(t *testing.T) {
	o := tiny(t, "sweep-service", true)
	res := runTiny(t, o)
	if got, want := sortedKeys(res.Metrics), sortedKeys(perLayerUnits); len(got) != len(want) {
		t.Fatalf("metrics %v, want %v", got, want)
	}
	// Exact counts repeat bit for bit.
	again := runTiny(t, o)
	for _, name := range []string{"perf.suite_evals", "perf.trace_reuse_ratio", "perf.model_err_pct",
		"cpu.sim_cycles", "cpu.l1d_misses", "cpu.bypass_stalls", "core.full_builds", "core.delta_builds"} {
		if res.Metrics[name] != again.Metrics[name] {
			t.Errorf("%s: %v then %v", name, res.Metrics[name], again.Metrics[name])
		}
	}
	if r := res.Metrics["server.cache_hit_ratio"].Value; r != float64(repeatsPerBlock)/mixBlock {
		t.Errorf("server.cache_hit_ratio = %g", r)
	}
	if _, err := os.Stat(filepath.Join(o.out, "trace-sweep-service-seed3.json")); err != nil {
		t.Error(err)
	}
}

func TestPaperReferenceModelError(t *testing.T) {
	vals, err := parsePaperValues(paperReference)
	if err != nil {
		t.Fatal(err)
	}
	if e := modelErrPct(vals); e < 9.1 || e > 9.2 {
		t.Errorf("model error of the seed-2006 reference = %.3f%%, want 9.1", e)
	}
}
