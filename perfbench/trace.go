package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Parent is the id of
// the span that caused it (0 for a root); spans of one request share Req,
// which a child opened with Req 0 inherits from its parent.
type span struct {
	ID     int
	Parent int
	Req    int
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the benchmark writes them out.
// Parenting is explicit — every span names its parent — so spans opened
// concurrently by different clients nest correctly. A nil recorder
// records nothing, which is how the same replay code runs untraced.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	return r.push(span{Parent: parent, Req: req, Name: name, Start: time.Since(r.epoch), End: -1})
}

func (r *recorder) push(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.Req == 0 && s.Parent > 0 {
		s.Req = r.spans[s.Parent-1].Req
	}
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// end closes the span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose interval is already known, such as a phase
// the server timed itself and reported back.
func (r *recorder) add(name string, parent, req int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	return r.push(span{Parent: parent, Req: req, Name: name, Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
}

// do runs f inside a span and returns f's wall time.
func (r *recorder) do(name string, parent int, f func()) time.Duration {
	id := r.begin(name, parent, 0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.end(id)
	return d
}

// snapshot returns the recorded spans; open spans are dropped.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other (concurrent work under one parent); the covered part is the
// union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][][2]time.Duration{}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]time.Duration{lo, hi})
			}
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - unionLength(children[s.ID])
	}
	return out
}

// unionLength returns the total length covered by the intervals.
func unionLength(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerRow is one line of a "where the time goes" table.
type layerRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"` // of the root span's wall time
}

// selfTable aggregates the self time of every span below root by span
// name, largest first; the root's own self time is the row "(root)".
func selfTable(spans []span, self map[int]time.Duration, root int) []layerRow {
	under := map[int]bool{root: true}
	// Spans are appended after their parent opened, so ids ascend down
	// every chain and one pass in id order finds all descendants.
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	var wall time.Duration
	agg := map[string]*layerRow{}
	for _, s := range sorted {
		name := s.Name
		switch {
		case s.ID == root:
			wall = s.dur()
			name = "(root)"
		case under[s.Parent]:
			under[s.ID] = true
		default:
			continue
		}
		row := agg[name]
		if row == nil {
			row = &layerRow{Name: name}
			agg[name] = row
		}
		row.Count++
		row.SelfMS += float64(self[s.ID]) / 1e6
	}
	rows := make([]layerRow, 0, len(agg))
	for _, r := range agg {
		if wall > 0 {
			r.Share = r.SelfMS / (float64(wall) / 1e6)
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMS != rows[j].SelfMS {
			return rows[i].SelfMS > rows[j].SelfMS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// writeTable prints a self-time table under a heading.
func writeTable(w io.Writer, title string, rows []layerRow) {
	fmt.Fprintf(w, "where the time goes: %s\n", title)
	fmt.Fprintf(w, "  %-26s %6s %12s %7s\n", "span", "count", "self ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %6d %12.3f %6.1f%%\n", r.Name, r.Count, r.SelfMS, 100*r.Share)
	}
}

// writeChromeTrace writes spans in Chrome trace_event format (complete
// "X" events). Each request gets its own thread lane so concurrent
// requests stack correctly in the viewer; other spans share lane 0.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: cat, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: s.Req,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
