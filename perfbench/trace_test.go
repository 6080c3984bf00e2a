package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := r.add("root", 0, 0, at(0), at(100))
	a := r.add("a", root, 1, at(10), at(40))
	r.add("b", root, 2, at(30), at(60))            // overlaps a
	r.add("c", root, 3, at(90), at(120))           // runs past its parent: clipped
	g := r.add("grandchild", a, 0, at(15), at(35)) // covers only a, not root
	other := r.add("other", 0, 0, at(0), at(10))   // unrelated root
	self := selfTimes(r.snapshot())
	if req := r.snapshot()[g-1].Req; req != 1 {
		t.Errorf("grandchild request id %d, want its parent's 1", req)
	}

	want := map[int]time.Duration{
		root:  40 * time.Millisecond, // 100 - |[10,60] ∪ [90,100]|
		a:     10 * time.Millisecond, // 30 - 20
		other: 10 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}

	rows := selfTable(r.snapshot(), self, root)
	got := map[string]float64{}
	total := 0.0
	for _, row := range rows {
		got[row.Name] = row.SelfMS
		total += row.SelfMS
	}
	if got["(root)"] != 40 || got["a"] != 10 || got["b"] != 30 || got["grandchild"] != 20 {
		t.Errorf("self table = %+v", rows)
	}
	if _, ok := got["other"]; ok {
		t.Error("self table includes a span outside the root")
	}
	// Concurrent siblings each keep their own self time (a and b overlap
	// by 10 ms) and the clipped child keeps its full 30 ms, so the sum
	// exceeds the root's 100 ms wall time by 10 + 20 ms.
	if total != 130 {
		t.Errorf("self times sum to %g ms", total)
	}
}

func TestUnionLength(t *testing.T) {
	iv := [][2]time.Duration{{5, 7}, {0, 2}, {1, 3}, {7, 9}}
	if got := unionLength(iv); got != 7 {
		t.Errorf("union = %v, want 7", got)
	}
	if unionLength(nil) != 0 {
		t.Error("empty union")
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 0)
	r.end(id)
	ran := false
	r.do("y", id, func() { ran = true })
	if id != 0 || !ran || r.snapshot() != nil {
		t.Errorf("nil recorder: id %d ran %v", id, ran)
	}
}

func TestChromeTrace(t *testing.T) {
	r := newRecorder()
	root := r.begin("paper-repro", 0, 0)
	r.do("perf.table6", root, func() {})
	r.end(root)
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[1]
	if e.Name != "perf.table6" || e.Cat != "perf" || e.Ph != "X" || e.Args["parent"] != root {
		t.Errorf("event = %+v", e)
	}
}
