package cpu

import (
	"testing"

	"yieldcache/internal/workload"
)

// batchConfigs is the paper's CPI configuration set (baseline, YAPD
// 3-way, VACA with one to four 5-cycle ways, a 3-way cache with a
// 5-cycle way, naive binning at 5 and 6 cycles) plus a disabled
// horizontal region and a next-line-prefetching machine.
func batchConfigs() []Config {
	d := DefaultConfig()
	pf := d.WithL1D([]int{5, 4, 4, 4}, -1, 0)
	pf.NextLinePrefetch = true
	return []Config{
		d,
		d.WithL1D([]int{0, 4, 4, 4}, -1, 0),
		d.WithL1D([]int{5, 4, 4, 4}, -1, 0),
		d.WithL1D([]int{5, 5, 4, 4}, -1, 0),
		d.WithL1D([]int{5, 5, 5, 4}, -1, 0),
		d.WithL1D([]int{5, 5, 5, 5}, -1, 0),
		d.WithL1D([]int{5, 4, 4, 0}, -1, 0),
		d.WithL1D([]int{5, 5, 5, 5}, -1, 5),
		d.WithL1D([]int{6, 6, 6, 6}, -1, 6),
		d.WithL1D(nil, 2, 0),
		pf,
	}
}

// checkBatch fails unless every configuration's RunBatch result equals
// its own Run on a fresh generator, field for field.
func checkBatch(t *testing.T, p workload.Profile, seed int64, n int, cfgs []Config) {
	t.Helper()
	got := RunBatch(workload.NewGenerator(p, seed), n, cfgs)
	if len(got) != len(cfgs) {
		t.Fatalf("%s n=%d: %d results for %d configs", p.Name, n, len(got), len(cfgs))
	}
	for k, cfg := range cfgs {
		if want := Run(workload.NewGenerator(p, seed), n, cfg); got[k] != want {
			t.Errorf("%s n=%d config %d (L1D ways %v region %d predict %d):\nbatch %+v\nrun   %+v",
				p.Name, n, k, cfg.L1D.WayCycles, cfg.L1D.HRegionOff, cfg.PredictedLoadCycles, got[k], want)
		}
	}
}

// Stepping machines in lockstep over one trace must not change any of
// them: no state may leak between the machines of a batch, and chunk
// boundaries must be invisible.
func TestRunBatchMatchesRun(t *testing.T) {
	cfgs := batchConfigs()
	for _, p := range workload.SPEC2000() {
		for _, n := range []int{0, 1, chunkSize, chunkSize + 1, 5 * chunkSize / 2} {
			checkBatch(t, p, 1, n, cfgs)
		}
	}
}

func TestRunZeroInstructions(t *testing.T) {
	p, _ := workload.ByName("gzip")
	if r := Run(workload.NewGenerator(p, 1), 0, DefaultConfig()); r != (Result{}) {
		t.Errorf("empty run = %+v, want the zero Result", r)
	}
}

// Pruning stores that have left the forwarding window must not change
// any result, and must keep the forwarding map no larger than the
// window.
func TestStoreForwardPruning(t *testing.T) {
	const n = 40_000
	for _, name := range []string{"gzip", "mcf", "swim", "eon"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		cfg := DefaultConfig()
		pruned, kept := newMachine(cfg), newMachine(cfg)
		kept.forwardExpiry = 0
		gen := workload.NewGenerator(p, 1)
		maxLen := 0
		for i := 0; i < n; i++ {
			in := gen.Next()
			pruned.step(i, &in)
			kept.step(i, &in)
			maxLen = max(maxLen, len(pruned.storeIdx))
		}
		if a, b := pruned.finish(n), kept.finish(n); a != b {
			t.Errorf("%s: pruning changed the result:\npruned %+v\nkept   %+v", name, a, b)
		}
		if maxLen > cfg.StoreForwardWindow+1 {
			t.Errorf("%s: forwarding map reached %d entries, window is %d", name, maxLen, cfg.StoreForwardWindow)
		}
		if len(kept.storeIdx) <= maxLen {
			t.Errorf("%s: unpruned map (%d entries) should outgrow the pruned one (%d)", name, len(kept.storeIdx), maxLen)
		}
	}
}

// FuzzRunBatch checks the batch invariant on random profiles, seeds,
// lengths and way-cycle vectors. Every four bytes of ways make one
// configuration's per-way cycles (0 disables the way; a vector with
// no enabled way gets a 4-cycle way 0).
func FuzzRunBatch(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(1500), []byte{4, 4, 4, 4, 5, 4, 4, 4})
	f.Add(uint8(3), int64(2006), uint16(1025), []byte{0, 4, 4, 4, 6, 6, 6, 6, 0, 0, 0, 0})
	f.Add(uint8(23), int64(-7), uint16(0), []byte{})
	suite := workload.SPEC2000()
	f.Fuzz(func(t *testing.T, profile uint8, seed int64, n uint16, ways []byte) {
		p := suite[int(profile)%len(suite)]
		var cfgs []Config
		for len(ways) >= 4 && len(cfgs) < 6 {
			wc := make([]int, 4)
			enabled := false
			for w := range wc {
				wc[w] = int(ways[w] % 8)
				enabled = enabled || wc[w] != 0
			}
			if !enabled {
				wc[0] = 4
			}
			cfgs = append(cfgs, DefaultConfig().WithL1D(wc, -1, 0))
			ways = ways[4:]
		}
		if len(cfgs) == 0 {
			cfgs = []Config{DefaultConfig()}
		}
		checkBatch(t, p, seed, int(n)%5001, cfgs)
	})
}
