package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// checkSpanTree fails t unless every span lies inside its parent's
// interval and any two spans sharing a lane are disjoint in time or one
// contains the other.
func checkSpanTree(t *testing.T, spans []SpanInfo) {
	t.Helper()
	contains := func(a, b SpanInfo) bool { return a.Start <= b.Start && b.End <= a.End }
	for i, s := range spans {
		if s.Parent >= i {
			t.Errorf("span %d %q has parent %d recorded after it", i, s.Name, s.Parent)
		} else if s.Parent >= 0 && !contains(spans[s.Parent], s) {
			t.Errorf("span %q [%v, %v] outlives its parent %q [%v, %v]", s.Name, s.Start, s.End,
				spans[s.Parent].Name, spans[s.Parent].Start, spans[s.Parent].End)
		}
		for _, o := range spans[:i] {
			disjoint := s.End <= o.Start || o.End <= s.Start
			if s.Lane == o.Lane && !disjoint && !contains(s, o) && !contains(o, s) {
				t.Errorf("lane %d: %q [%v, %v] and %q [%v, %v] overlap without nesting",
					s.Lane, o.Name, o.Start, o.End, s.Name, s.Start, s.End)
			}
		}
	}
}

// Concurrent StartSpan roots, children of one shared parent context,
// their own children and Worker spans must each get the parent they
// were opened under, and every lane must stay nested in time.
func TestStartSpanConcurrentParenting(t *testing.T) {
	sc := NewScope("j1", nil)
	base := WithScope(context.Background(), sc)
	jctx, job := StartSpan(base, "job")
	want := map[string]string{"job": ""}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		child, grand := fmt.Sprintf("child_%d", i), fmt.Sprintf("grand_%d", i)
		worker, root := fmt.Sprintf("worker_%d", i), fmt.Sprintf("root_%d", i)
		want[child], want[grand], want[worker], want[root] = "job", child, child, ""
		pause := time.Duration(i%3) * 100 * time.Microsecond
		wg.Add(2)
		go func() {
			defer wg.Done()
			cctx, c := StartSpan(jctx, child)
			defer c.End()
			var ws sync.WaitGroup
			for k := 0; k < 2; k++ {
				ws.Add(1)
				go func() {
					defer ws.Done()
					w := c.Worker(worker)
					time.Sleep(pause)
					w.End()
				}()
			}
			_, g := StartSpan(cctx, grand)
			time.Sleep(pause)
			g.End()
			ws.Wait()
		}()
		go func() {
			defer wg.Done()
			_, r := StartSpan(base, root)
			time.Sleep(pause)
			r.End()
		}()
	}
	wg.Wait()
	job.End()

	spans := sc.Tracer.Spans()
	if len(spans) != 1+6*5 {
		t.Fatalf("recorded %d spans, want %d", len(spans), 1+6*5)
	}
	for _, s := range spans {
		parent := ""
		if s.Parent >= 0 {
			parent = spans[s.Parent].Name
		}
		if parent != want[s.Name] {
			t.Errorf("span %q has parent %q, want %q", s.Name, parent, want[s.Name])
		}
	}
	checkSpanTree(t, spans)
}

// A child stays on its parent's lane only while the parent is the
// innermost open span there; otherwise it takes the lowest free lane.
func TestTracerLaneRule(t *testing.T) {
	sc := NewScope("j1", nil)
	ctx, a := StartSpan(WithScope(context.Background(), sc), "a")
	w1 := a.Worker("w1") // a is innermost on lane 1: lane 1
	w2 := a.Worker("w2") // w1 is innermost there now: lane 2
	w1.End()
	w3 := a.Worker("w3") // a is innermost again: lane 1
	// Lanes 1 and 2 both hold open spans, so a new root takes lane 3.
	_, b := StartSpan(WithScope(context.Background(), sc), "b")
	w2.End()
	w3.End()
	b.End()
	_, c := StartSpan(ctx, "c")
	c.End()
	a.End()
	lanes := map[string]int{}
	for _, s := range sc.Tracer.Spans() {
		lanes[s.Name] = s.Lane
	}
	want := map[string]int{"a": 1, "w1": 1, "w2": 2, "w3": 1, "b": 3, "c": 1}
	for name, lane := range want {
		if lanes[name] != lane {
			t.Errorf("span %s on lane %d, want %d (all: %v)", name, lanes[name], lane, lanes)
		}
	}
}
