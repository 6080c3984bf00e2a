package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer records wall-time spans of the pipeline phases as a tree.
//
// Every span is opened with an explicit parent: StartSpan takes it
// from the context, Span.Worker from its receiver. Concurrent callers
// therefore never nest inside one another. The tracer, not the caller,
// picks each span's Chrome-trace lane: a span stays on its parent's
// lane while the parent is the innermost open span there, and
// otherwise takes the lowest lane with no open span. Spans sharing a
// lane are thus nested in time under any concurrency, provided every
// span ends before its parent does.
type Tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []spanRec
	lanes [][]int // per lane, the indices of its open spans, innermost last
}

type spanRec struct {
	name       string
	parent     int // index into spans; -1 for roots
	tid        int // Chrome trace_event lane, from 1
	start, end time.Duration
	open       bool
}

// Span is a handle to one recorded phase. A nil Span is a valid no-op.
type Span struct {
	t   *Tracer
	idx int
}

// NewTracer returns an empty tracer; its clock starts now.
func NewTracer() *Tracer { return &Tracer{base: time.Now()} }

// spanKey is the context key carrying the innermost open *Span.
type spanKey struct{}

// StartSpan opens a span named name and returns it with a context that
// carries it, so spans opened from that context become its children.
// The parent is the span ctx carries, and the new span lives on that
// span's tracer. With no span in ctx the new span is a root: on the
// tracer of ctx's Scope when there is one, otherwise on the default
// tracer. When ctx carries a Scope whose event bus has a subscriber,
// entering the phase also publishes a job_phase event. With tracing
// off it returns ctx unchanged and a nil (no-op) span, allocating
// nothing.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sc := ScopeFrom(ctx)
	if sc != nil && sc.events.Active() {
		sc.events.Publish(Event{Type: EventJobPhase, Job: sc.ID, Phase: name})
	}
	var sp *Span
	if parent, _ := ctx.Value(spanKey{}).(*Span); parent != nil {
		sp = parent.t.start(name, parent.idx)
	} else if sc != nil {
		sp = sc.Tracer.start(name, -1)
	} else {
		sp = defaultTracer.Load().start(name, -1)
	}
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Worker opens a child span of s for one goroutine of a parallel
// phase; safe to call from any goroutine. Unlike StartSpan it never
// publishes an event.
func (s *Span) Worker(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(name, s.idx)
}

// start records an open span under parent (-1 for a root) and picks its
// lane. A nil tracer returns a nil span.
func (t *Tracer) start(name string, parent int) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lane := 0
	if open := t.parentLane(parent); open >= 0 {
		lane = open
	} else {
		for lane < len(t.lanes) && len(t.lanes[lane]) > 0 {
			lane++
		}
		if lane == len(t.lanes) {
			t.lanes = append(t.lanes, nil)
		}
	}
	idx := len(t.spans)
	t.spans = append(t.spans, spanRec{
		name:   name,
		parent: parent,
		tid:    lane + 1,
		start:  time.Since(t.base),
		open:   true,
	})
	t.lanes[lane] = append(t.lanes[lane], idx)
	return &Span{t: t, idx: idx}
}

// parentLane returns the lane (0-based) of parent when parent is the
// innermost open span there, else -1; the caller holds t.mu.
func (t *Tracer) parentLane(parent int) int {
	if parent < 0 {
		return -1
	}
	l := t.spans[parent].tid - 1
	if open := t.lanes[l]; len(open) > 0 && open[len(open)-1] == parent {
		return l
	}
	return -1
}

// End closes the span and frees its place on its lane, even when it
// ends out of order.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := &t.spans[s.idx]
	if !rec.open {
		return
	}
	rec.end = time.Since(t.base)
	rec.open = false
	open := t.lanes[rec.tid-1]
	for i := len(open) - 1; i >= 0; i-- {
		if open[i] == s.idx {
			t.lanes[rec.tid-1] = append(open[:i], open[i+1:]...)
			break
		}
	}
}

// snapshot copies the records, closing still-open spans at "now" so the
// encoders never see negative durations.
func (t *Tracer) snapshot() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.base)
	out := append([]spanRec(nil), t.spans...)
	for i := range out {
		if out[i].open {
			out[i].end = now
		}
	}
	return out
}

// SpanInfo is one recorded span in a Spans snapshot.
type SpanInfo struct {
	Name   string
	Parent int // index into the snapshot; -1 for roots
	Lane   int // Chrome trace lane (tid), from 1; see Tracer for the lane rule
	Start  time.Duration
	End    time.Duration
	Open   bool // still running at snapshot time (End is the snapshot time)
}

// Spans returns a point-in-time copy of the recorded spans, open ones
// closed at "now". The yieldd server uses it to fold a finished job's
// phase durations into the global /metrics histograms.
func (t *Tracer) Spans() []SpanInfo {
	recs := t.snapshot()
	out := make([]SpanInfo, len(recs))
	for i, r := range recs {
		out[i] = SpanInfo{
			Name:   r.name,
			Parent: r.parent,
			Lane:   r.tid,
			Start:  r.start,
			End:    r.end,
			Open:   r.open,
		}
	}
	return out
}

// WriteChromeTrace writes the span set in the Chrome trace_event JSON
// array format — load it at chrome://tracing or https://ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Ts   float64 `json:"ts"`  // microseconds
		Dur  float64 `json:"dur"` // microseconds
	}
	spans := t.snapshot()
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name,
			Ph:   "X",
			Pid:  1,
			Tid:  s.tid,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
}

// Summary renders the span tree as an indented text flame summary.
// Same-named siblings are merged into one line (count, summed time);
// percentages are of the parent's wall time (of the total for roots).
func (t *Tracer) Summary() string {
	spans := t.snapshot()
	if len(spans) == 0 {
		return "phase trace: (no spans)\n"
	}
	children := make(map[int][]int)
	var total time.Duration
	for i, s := range spans {
		children[s.parent] = append(children[s.parent], i)
		if s.parent == -1 && s.end > total {
			total = s.end
		}
	}
	if total == 0 {
		total = 1
	}

	var b strings.Builder
	fmt.Fprintf(&b, "phase trace (wall %s)\n", total.Round(time.Microsecond))
	var walk func(parent int, parentDur time.Duration, depth int)
	walk = func(parent int, parentDur time.Duration, depth int) {
		// Merge same-named siblings, preserving first-seen order.
		type group struct {
			name  string
			dur   time.Duration
			count int
			kids  []int
		}
		var order []string
		groups := make(map[string]*group)
		for _, ci := range children[parent] {
			s := spans[ci]
			g, ok := groups[s.name]
			if !ok {
				g = &group{name: s.name}
				groups[s.name] = g
				order = append(order, s.name)
			}
			g.dur += s.end - s.start
			g.count++
			g.kids = append(g.kids, ci)
		}
		sort.SliceStable(order, func(a, b int) bool {
			return groups[order[a]].dur > groups[order[b]].dur
		})
		for _, name := range order {
			g := groups[name]
			label := g.name
			if g.count > 1 {
				label = fmt.Sprintf("%s ×%d", g.name, g.count)
			}
			pct := 100 * float64(g.dur) / float64(parentDur)
			fmt.Fprintf(&b, "%s%-*s %10s %5.1f%%\n",
				strings.Repeat("  ", depth+1), 36-2*depth, label,
				g.dur.Round(time.Microsecond), pct)
			// Recurse using the group's summed duration as the base so a
			// ×N merged line's children still report sensible fractions.
			for _, ci := range g.kids {
				walk(ci, g.dur, depth+1)
			}
		}
	}
	walk(-1, total, 0)
	return b.String()
}
