package core

import (
	"context"
	"runtime/debug"
	"testing"
	"time"
)

// allocBudgetRow is one armed configuration of the pair build and the
// number of allocations arming it may add to the plain build.
type allocBudgetRow struct {
	name  string
	ck    *CheckpointConfig
	est   *EstimateConfig
	extra float64
}

var (
	allocCheckpoint = &CheckpointConfig{
		Interval: time.Millisecond,
		Sink:     func(*BuildCheckpoint) error { return nil },
	}
	allocEstimate = &EstimateConfig{
		Interval:    time.Millisecond,
		Constraints: Nominal(),
		Sink:        func(*YieldEstimate) {},
	}
)

// checkAllocBudget pins the steady-state allocation budget of the pair
// build: at most 28 allocations per plain build regardless of N (the
// per-chip hot loop is allocation-free; what remains is per-build setup
// — models, arenas, sampler, evaluator shell), and each row at most
// row.extra more.
//
// GC is disabled for the measurement because the kernel's pooled
// buffers live in a sync.Pool, which a collection may clear; the
// budget is about what the code allocates, not about GC timing.
func checkAllocBudget(t *testing.T, rows ...allocBudgetRow) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is pinned by the non-race run")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(cfg PopulationConfig) float64 {
		Build(context.Background(), cfg) // warm the kernel buffer pool
		return testing.AllocsPerRun(10, func() { Build(context.Background(), cfg) })
	}
	base := PopulationConfig{N: 200, Seed: 1, Workers: 1}
	plain := allocs(base)
	if plain > 28 {
		t.Errorf("plain pair build allocates %.1f times per run, budget is 28", plain)
	}
	for _, tc := range rows {
		cfg := base
		cfg.Checkpoint, cfg.Estimate = tc.ck, tc.est
		got := allocs(cfg)
		t.Logf("%s: %.0f allocs per build, plain %.0f", tc.name, got, plain)
		if got > plain+tc.extra {
			t.Errorf("%s: pair build allocates %.1f times per run, plain is %.1f: arming may add at most %.0f",
				tc.name, got, plain, tc.extra)
		}
	}
}

// TestPairBuildAllocBudget: the plain build stays within 28
// allocations, and arming the checkpointer adds at most 2 (the
// prefix-frontier publisher and its frontier slice).
func TestPairBuildAllocBudget(t *testing.T) {
	checkAllocBudget(t, allocBudgetRow{"checkpoint", allocCheckpoint, nil, 2})
}

// TestEstimateAllocBudget: arming the estimator costs the same 2
// allocations as the checkpointer, and arming both at most 3, since both
// subscribers share the one publisher.
func TestEstimateAllocBudget(t *testing.T) {
	checkAllocBudget(t,
		allocBudgetRow{"estimate", nil, allocEstimate, 2},
		allocBudgetRow{"checkpoint+estimate", allocCheckpoint, allocEstimate, 3},
	)
}
