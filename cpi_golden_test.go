package yieldcache

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// paperL1DConfigs are the L1D configurations the paper's CPI sections
// simulate: the baseline (nil and explicit), the YAPD 3-way caches, VACA
// with one to four 5-cycle ways, the Hybrid's 3-way caches with slow
// ways, and naive binning at 5 and 6 cycles.
var paperL1DConfigs = []l1dKey{
	{nil, -1, 0},
	{[]int{4, 4, 4, 4}, -1, 0},
	{[]int{0, 4, 4, 4}, -1, 0},
	{[]int{4, 4, 4, 0}, -1, 0},
	{[]int{5, 4, 4, 4}, -1, 0},
	{[]int{5, 5, 4, 4}, -1, 0},
	{[]int{5, 5, 5, 4}, -1, 0},
	{[]int{5, 5, 5, 5}, -1, 0},
	{[]int{5, 4, 4, 0}, -1, 0},
	{[]int{5, 5, 4, 0}, -1, 0},
	{[]int{5, 5, 5, 5}, -1, 5},
	{[]int{6, 6, 6, 6}, -1, 6},
}

// TestGoldenSuiteCPI pins the per-benchmark CPI of every paper
// configuration, bit for bit, at 20k instructions and trace seed 1
// against testdata/cpi_golden.txt. The file was written by the
// one-configuration-per-trace evaluator, so it guards the numbers
// across any change to how the suite is simulated. It is fixed data:
// edit it by hand only when the CPU model's timing is deliberately
// changed.
func TestGoldenSuiteCPI(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "cpi_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]float64{} // "key bench" -> CPI
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		want[fields[0]+" "+fields[1]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	e := NewPerfEvaluator(PerfConfig{Instructions: 20_000, Seed: 1})
	got := e.suiteCPIs(context.Background(), paperL1DConfigs)
	if n := len(paperL1DConfigs) * len(e.Benchmarks()); len(want) != n {
		t.Fatalf("golden file has %d entries, want %d", len(want), n)
	}
	for k, key := range paperL1DConfigs {
		for i, name := range e.Benchmarks() {
			id := key.String() + " " + name
			w, ok := want[id]
			if !ok {
				t.Errorf("%s: missing from golden file", id)
				continue
			}
			if got[k][i] != w {
				t.Errorf("%s: CPI %s, golden %s", id,
					strconv.FormatFloat(got[k][i], 'x', -1, 64), strconv.FormatFloat(w, 'x', -1, 64))
			}
		}
	}
}
