package obs

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers
	"os"
	"strings"
)

// Flags is the observability flag bundle shared by the CLIs
// (yieldsim, cpusim, paper).
type Flags struct {
	MetricsOut  string // metrics file; .prom suffix selects Prometheus text, else JSON
	TraceOut    string // Chrome trace_event JSON file
	ManifestOut string // run-manifest JSON file
	PprofAddr   string // listen address for net/http/pprof, e.g. localhost:6060
	LogFormat   string // slog handler for diagnostics: text (default) or json
}

// AddFlags registers the observability flags on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.MetricsOut, "metrics-out", "",
		"write metrics to this file on exit (JSON; a .prom suffix selects Prometheus text)")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write a Chrome trace_event JSON phase trace to this file on exit")
	fs.StringVar(&f.ManifestOut, "manifest-out", "",
		"write a reproducibility manifest (seed, params, environment) to this file on exit")
	fs.StringVar(&f.PprofAddr, "pprof", "",
		"serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.LogFormat, "log-format", "text",
		"structured-log encoding for diagnostics on stderr: text or json")
	return f
}

// Run is one activated observability session; Close flushes the
// requested outputs.
type Run struct {
	flags    *Flags
	Manifest *Manifest // nil unless -manifest-out was given
	tracer   *Tracer
}

// Activate switches on whatever the flags ask for: the default metrics
// registry, the default tracer, the manifest, the pprof server, and the
// process's slog default handler (text or json per -log-format). With
// no flags set only the logger is configured and the instrumented code
// paths stay on their nil fast path.
func (f *Flags) Activate(tool string) *Run {
	r := &Run{flags: f}
	switch f.LogFormat {
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	default:
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	if f.MetricsOut != "" {
		Enable()
	}
	if f.TraceOut != "" {
		r.tracer = EnableTracing()
	}
	if f.ManifestOut != "" {
		r.Manifest = NewManifest(tool)
	}
	if f.PprofAddr != "" {
		go func(addr string) {
			fmt.Fprintf(os.Stderr, "%s: pprof listening on http://%s/debug/pprof/\n", tool, addr)
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: pprof server: %v\n", tool, err)
			}
		}(f.PprofAddr)
	}
	return r
}

// Close writes the metrics, trace (plus a text flame summary on
// stderr), and manifest files. It returns the first error but attempts
// every output.
func (r *Run) Close() error {
	if r == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if r.flags.MetricsOut != "" {
		keep(writeFile(r.flags.MetricsOut, func(w *os.File) error {
			if strings.HasSuffix(r.flags.MetricsOut, ".prom") {
				return Default().WritePrometheus(w)
			}
			return Default().WriteJSON(w)
		}))
	}
	if r.flags.TraceOut != "" {
		keep(writeFile(r.flags.TraceOut, func(w *os.File) error {
			return r.tracer.WriteChromeTrace(w)
		}))
		fmt.Fprint(os.Stderr, r.tracer.Summary())
	}
	if r.flags.ManifestOut != "" {
		keep(writeFile(r.flags.ManifestOut, func(w *os.File) error {
			return r.Manifest.WriteJSON(w)
		}))
	}
	return first
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
