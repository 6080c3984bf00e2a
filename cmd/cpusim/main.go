// Command cpusim runs one synthetic SPEC2000 benchmark (or the whole
// suite) on the out-of-order processor model with a chosen L1 data cache
// configuration and prints CPI and cache statistics.
//
// Usage:
//
//	cpusim [-bench name|all] [-n instructions] [-ways 4,4,4,5] [-hregion -1] [-predict 4] [-seed 1]
//
// Way latencies are comma-separated cycle counts, 0 disabling a way.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"yieldcache/internal/cpu"
	"yieldcache/internal/obs"
	"yieldcache/internal/report"
	"yieldcache/internal/workload"
)

func main() {
	bench := flag.String("bench", "all", "benchmark name or 'all'")
	n := flag.Int("n", 1_000_000, "instructions to simulate")
	ways := flag.String("ways", "", "per-way hit latencies, e.g. 5,4,4,4 (0 disables a way; empty = uniform 4)")
	hregion := flag.Int("hregion", -1, "disabled horizontal region (-1 = none)")
	predict := flag.Int("predict", 0, "scheduler's assumed load-hit latency (0 = default 4)")
	seed := flag.Int64("seed", 1, "trace generator seed")
	detailed := flag.Bool("detailed", false, "use the per-cycle (event-driven) core instead of the one-pass timing model")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	run := obsFlags.Activate("cpusim")
	defer func() {
		if err := run.Close(); err != nil {
			slog.Error("writing observability outputs", "error", err)
		}
	}()
	run.Manifest.Set("bench", *bench).Set("n", *n).Set("ways", *ways).
		Set("hregion", *hregion).Set("predict", *predict).
		Set("seed", *seed).Set("detailed", *detailed)

	var wayCycles []int
	if *ways != "" {
		for _, part := range strings.Split(*ways, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				slog.Error("bad -ways value", "value", part, "error", err)
				os.Exit(2)
			}
			wayCycles = append(wayCycles, v)
		}
	}
	cfg := cpu.DefaultConfig().WithL1D(wayCycles, *hregion, *predict)

	var profiles []workload.Profile
	if *bench == "all" {
		profiles = workload.SPEC2000()
	} else {
		p, ok := workload.ByName(*bench)
		if !ok {
			slog.Error("unknown benchmark", "bench", *bench,
				"have", strings.Join(workload.Names(), ", "))
			os.Exit(2)
		}
		profiles = []workload.Profile{p}
	}

	t := report.NewTable(
		fmt.Sprintf("%d instructions/benchmark, L1D ways=%v hregion=%d predict=%d",
			*n, cfg.L1D.WayCycles, cfg.L1D.HRegionOff, cfg.PredictedLoadCycles),
		"benchmark", "CPI", "L1D miss", "slow hits", "L1I miss", "L2 miss", "replays", "bypass stalls", "mispredicts")
	for _, p := range profiles {
		sim := cpu.Run
		if *detailed {
			sim = cpu.RunDetailed
		}
		_, sp := obs.StartSpan(context.Background(), "bench "+p.Name)
		r := sim(workload.NewGenerator(p, *seed), *n, cfg)
		sp.End()
		missRate := 0.0
		if r.L1DAccesses > 0 {
			missRate = float64(r.L1DMisses) / float64(r.L1DAccesses)
		}
		t.AddRow(p.Name, fmt.Sprintf("%.3f", r.CPI), fmt.Sprintf("%.4f", missRate),
			r.L1DSlowHits, r.L1IMisses, r.L2Misses, r.Replays, r.BypassStalls, r.Mispredicts)
	}
	fmt.Println(t.String())
}
