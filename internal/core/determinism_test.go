package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"yieldcache/internal/circuit"
	"yieldcache/internal/sram"
)

// TestBuildDeterminismMatrix checks every determinism guarantee of the
// population build in one place, against one unarmed single-worker
// reference build whose size is not a multiple of sram.BatchWidth:
// worker count (with and without the estimate armed), organisation,
// population size around the batch width, resume point, delta build vs
// full build, checkpoint and estimate armed together, and the
// early-stop prefix. Every row must reproduce the reference chip for
// chip, ids included — a smaller or early-stopped row its prefix, so
// chip i depends only on the seed and i — and every estimate a row
// publishes must equal the estimate computed directly over the
// reference prefix it covers.
func TestBuildDeterminismMatrix(t *testing.T) {
	const n, seed = 5*sram.BatchWidth + 3, 2006
	base := PopulationConfig{N: n, Seed: seed, Workers: 1}
	ref := mustBuild(t, base)
	ecfg := EstimateConfig{Interval: time.Nanosecond, Constraints: Nominal(), MinChips: 1}
	ecfg.fill()

	// wantEstimate is the snapshot over the reference prefix [0, p).
	wantEstimate := func(p int, early bool) YieldEstimate {
		e := estimator{cfg: ecfg, reg: ref.Regular.Chips}
		e.snapshot(p)
		e.buf.EarlyStop = early
		return e.buf
	}
	// prefixOK reports whether chips match the reference population's
	// first len(chips) chips, id and every measurement field.
	prefixOK := func(chips []Chip, want *Population) bool {
		if len(chips) > len(want.Chips) {
			return false
		}
		for i := range chips {
			if !reflect.DeepEqual(chips[i], want.Chips[i]) {
				return false
			}
		}
		return true
	}

	with := func(mut func(*PopulationConfig)) func(*testing.T) BuildResult {
		return func(t *testing.T) BuildResult {
			cfg := base
			mut(&cfg)
			return mustBuild(t, cfg)
		}
	}
	const k = 2*sram.BatchWidth + 1 // resume point inside a batch
	alpha := circuit.PTM45()
	alpha.Alpha *= 1.1

	var mu sync.Mutex
	var published int
	var bad []string
	note := func(format string, args ...any) {
		mu.Lock()
		bad = append(bad, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	type row struct {
		name  string
		build func(*testing.T) BuildResult
		early bool // the row stops at a prefix of the reference
		armed bool // the row arms the estimator, so it reports a final estimate
		n     int  // the row's population size; 0 means n
	}
	rows := []row{
		{name: "workers=2", build: with(func(c *PopulationConfig) { c.Workers = 2 })},
		{name: "workers=8", build: with(func(c *PopulationConfig) { c.Workers = 8 })},
		{name: "regular only", build: with(func(c *PopulationConfig) { c.Org = OrgRegular; c.Workers = 3 })},
		{name: "regular only workers=8", build: with(func(c *PopulationConfig) { c.Org = OrgRegular; c.Workers = 8 })},
		{name: "regular only default workers", build: with(func(c *PopulationConfig) { c.Org = OrgRegular; c.Workers = 0 })},
		{name: fmt.Sprintf("resume at %d", k), build: with(func(c *PopulationConfig) {
			c.Workers = 3
			c.Checkpoint = &CheckpointConfig{Resume: &BuildCheckpoint{
				Seed: seed, N: n, Done: k, Pair: true,
				Tech: ref.Regular.Model.Tech, Geom: ref.Regular.Model.Geom,
				Regular: ref.Regular.Chips[:k], Horizontal: ref.Horizontal.Chips[:k],
			}}
		})},
		{name: "delta base", build: func(t *testing.T) BuildResult {
			reg, hor := mustDelta(t, base).Base()
			return BuildResult{Regular: reg, Horizontal: hor}
		}},
		{name: "delta from another tech", build: func(t *testing.T) BuildResult {
			cfg := base
			cfg.Tech = &alpha
			reg, hor := deltaPair(t, mustDelta(t, cfg), circuit.PTM45())
			return BuildResult{Regular: reg, Horizontal: hor}
		}},
		{name: "checkpoint+estimate", build: with(func(c *PopulationConfig) {
			c.Workers = 4
			c.Checkpoint = &CheckpointConfig{Interval: time.Nanosecond, Sink: func(bc *BuildCheckpoint) error {
				if !prefixOK(bc.Regular, ref.Regular) || !prefixOK(bc.Horizontal, ref.Horizontal) {
					note("checkpoint at %d is not a prefix of the reference", bc.Done)
				}
				mu.Lock()
				published++
				mu.Unlock()
				return nil
			}}
			e := ecfg
			e.Sink = func(got *YieldEstimate) {
				if *got != wantEstimate(got.Chips, got.EarlyStop) {
					note("snapshot at %d differs from the reference prefix's", got.Chips)
				}
			}
			c.Estimate = &e
		}), armed: true},
		{name: "early stop", build: with(func(c *PopulationConfig) {
			e := ecfg
			e.TargetCIWidth = 0.5
			c.Estimate = &e
		}), early: true, armed: true},
	}
	for _, w := range []int{1, 2, 3, 7, 8} {
		rows = append(rows, row{name: fmt.Sprintf("estimate workers=%d", w), build: with(func(c *PopulationConfig) {
			e := ecfg
			e.Sink = func(*YieldEstimate) {}
			c.Workers, c.Estimate = w, &e
		}), armed: true})
	}
	for _, size := range []int{1, sram.BatchWidth - 1, sram.BatchWidth + 1, 2*sram.BatchWidth + 1} {
		for _, w := range []int{1, 3} {
			rows = append(rows, row{name: fmt.Sprintf("N=%d workers=%d", size, w), n: size,
				build: with(func(c *PopulationConfig) { c.N, c.Workers = size, w })})
		}
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			bad, published = nil, 0
			res := row.build(t)
			want := n
			if row.n != 0 {
				want = row.n
			}
			chips := 0
			for _, pair := range [][2]*Population{{res.Regular, ref.Regular}, {res.Horizontal, ref.Horizontal}} {
				if pair[0] == nil {
					continue
				}
				chips = len(pair[0].Chips)
				if !prefixOK(pair[0].Chips, pair[1]) {
					t.Errorf("population diverges from the reference")
				}
			}
			if row.early != (chips < want) || chips == 0 || chips > want {
				t.Errorf("built %d of %d chips, early stop expected: %v", chips, want, row.early)
			}
			if res.Estimate != nil && *res.Estimate != wantEstimate(chips, row.early) {
				t.Errorf("final estimate differs from the reference prefix's:\n got %+v\nwant %+v",
					*res.Estimate, wantEstimate(chips, row.early))
			}
			if row.armed && res.Estimate == nil {
				t.Error("armed build reports no final estimate")
			}
			if row.name == "checkpoint+estimate" && published == 0 {
				t.Error("armed build published no checkpoint")
			}
			for _, msg := range bad {
				t.Error(msg)
			}
		})
	}
}
