// Command perfbench is the repository benchmark. It drives cmd/paper and
// cmd/yieldd, as built from the checkout by run.sh, through one of three
// workloads, checks every output, and prints the end-to-end metrics;
// with -trace 1 it instead runs the traced pass, which calls the facade
// and the internal packages directly and prints the per-layer metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-repro --seed 1 --seconds 20 --trace 0
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. README.md beside this file describes
// the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options are the benchmark's inputs. main sets the sizes to the
// paper's; only the benchmark's own tests lower them.
type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        bool
	bin          string // directory holding the paper and yieldd binaries
	out          string // directory for result and trace files
	chips        int    // paper and study population size
	instructions int    // CPI trace length per benchmark run
	sweepChips   int    // population size per sweep config
	setupStarts  int    // program starts whose median is setup_s
}

// The sweep population and the program starts timed for setup_s (the
// paper's sizes are in paper.go).
const (
	sweepDefaultChips  = 2000
	defaultSetupStarts = 5
)

func (o options) binPath(name string) string { return filepath.Join(o.bin, name) }

func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

// clients is each workload's closed-loop client count; the traced
// pass replays each workload with the same count.
var clients = map[string]int{"paper-repro": 1, "study-service": studyClients, "sweep-service": 1}

var workloads = map[string]func(options, *report) error{
	"paper-repro":   runPaperRepro,
	"study-service": runStudyService,
	"sweep-service": runSweepService,
}

func main() {
	o := options{chips: paperDefaultChips, instructions: paperDefaultInstr,
		sweepChips: sweepDefaultChips, setupStarts: defaultSetupStarts}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "paper-repro, study-service or sweep-service")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every generated input derives from it")
	flag.IntVar(&o.seconds, "seconds", 20, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the paper and yieldd binaries")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for result and trace files")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	wl, ok := workloads[o.workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown -workload %q (want paper-repro, study-service or sweep-service)", o.workload)
	case o.seconds < 1:
		return errors.New("-seconds must be at least 1")
	case o.seed == 0:
		return errors.New("-seed must be non-zero")
	}
	for _, name := range []string{"paper", "yieldd"} {
		if _, err := os.Stat(o.binPath(name)); err != nil {
			return fmt.Errorf("program under test missing: %w", err)
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	rep := newReport(o)
	var err error
	if o.trace {
		err = runTraced(o, rep)
	} else {
		err = wl(o, rep)
	}
	if err != nil {
		return err
	}
	return rep.finish(o, os.Stdout)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Gated metrics: the contract names in BENCHMARK.json. Every workload
// reports every end-to-end one; per-layer ones come from the traced pass.
const (
	setupMetric      = "setup_s"
	rssMetric        = "rss_mb"
	latencyMetric    = "latency_p50_ms"
	throughputMetric = "throughput_per_s"
)

var endToEndUnits = map[string]string{
	setupMetric:      "s",
	rssMetric:        "MB",
	latencyMetric:    "ms",
	throughputMetric: "1/s",
}

// named is a workload's own metric, printed under its own name with its
// latency summary where it has one.
type named struct {
	Name    string   `json:"name"`
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Latency *latency `json:"latency,omitempty"`
}

// report collects one run's results and provenance.
type report struct {
	Machine   provenance            `json:"machine"`
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   int                   `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Clients   map[string]int        `json:"clients"` // per workload
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Failures  []string              `json:"failures,omitempty"`
	Named     []named               `json:"named"`
	Metrics   map[string]metric     `json:"metrics"`
	Layers    map[string][]layerRow `json:"where_the_time_goes,omitempty"`
	Extra     map[string]float64    `json:"extra,omitempty"`
}

func newReport(o options) *report {
	return &report{
		Machine:  machine(),
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Clients: clients, Metrics: map[string]metric{},
	}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *report) fail(msg string) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, msg)
	}
}

func (r *report) extra(name string, v float64) {
	if r.Extra == nil {
		r.Extra = map[string]float64{}
	}
	r.Extra[name] = v
}

func (r *report) named(name string, v float64, unit string, l *latency) {
	if l != nil {
		c := *l
		c.P50, c.P95 = finite(c.P50), finite(c.P95)
		l = &c
	}
	r.Named = append(r.Named, named{Name: name, Value: finite(v), Unit: unit, Latency: l})
}

// gate sets an end-to-end contract metric.
func (r *report) gate(name string, v float64) {
	r.Metrics[name] = metric{Value: finite(v), Unit: endToEndUnits[name]}
}

// layer sets a per-layer contract metric.
func (r *report) layer(name string, v float64) {
	r.Metrics[name] = metric{Value: finite(v), Unit: perLayerUnits[name]}
}

// setup reports the median of the set-up samples (seconds).
func (r *report) setup(samples []float64) {
	v := median(samples)
	r.named(setupMetric, v, "s", &latency{Samples: len(samples), P50: v})
	r.gate(setupMetric, v)
}

// rss reports the program's resident memory: the median of the samples
// taken over the measured work (gated; steadier than the peak, which
// hangs on when garbage collections happen to fall) and the peak.
func (r *report) rss(samples []float64, peak float64) {
	v := median(samples)
	r.named(rssMetric, v, "MB", &latency{Samples: len(samples), P50: v})
	r.named("max_rss_mb", peak, "MB", nil)
	r.gate(rssMetric, v)
}

// finish prints the human-readable report, writes it as JSON under
// o.out, and prints the result line last.
func (r *report) finish(o options, w io.Writer) error {
	if r.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	if !r.Trace {
		r.named("error_rate", float64(r.Failed)/float64(r.Attempted), "ratio", nil)
	}
	want := endToEndUnits
	if r.Trace {
		want = perLayerUnits
	}
	for name := range want {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}

	m := r.Machine
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v clients=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Clients)
	fmt.Fprintf(w, "machine: %s/%s cpu=%q nproc=%d gomaxprocs=%d %s commit=%s source=%.12s\n",
		m.GOOS, m.GOARCH, m.CPU, m.NProc, m.GOMAXPROCS, m.GoVersion, m.Commit, m.SourceSHA256)
	for _, n := range r.Named {
		fmt.Fprintf(w, "  %-32s %14.6g %-10s", n.Name, n.Value, n.Unit)
		if l := n.Latency; l != nil {
			fmt.Fprintf(w, " samples=%d", l.Samples)
			if l.Samples > 1 && n.Name != setupMetric && n.Name != rssMetric {
				fmt.Fprintf(w, " beyond_p95=%d p95_has_10_beyond=%v", l.BeyondP95, l.P95Has10)
			}
		}
		fmt.Fprintln(w)
	}
	for _, k := range sortedKeys(r.Extra) {
		fmt.Fprintf(w, "  %-32s %14.6g\n", k, r.Extra[k])
	}
	if r.Trace {
		for _, k := range sortedKeys(r.Metrics) {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  failure:", f)
	}
	for _, k := range sortedKeys(r.Layers) {
		writeTable(w, k, r.Layers[k])
	}

	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, boolInt(r.Trace)))
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "report:", path)

	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]metric{}}
	for name := range want {
		res.Metrics[name] = r.Metrics[name]
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// finite maps the +Inf of a failed-latency percentile (and the NaN of
// an empty sample) to the largest float, which JSON can carry; the run
// is already marked incorrect.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
