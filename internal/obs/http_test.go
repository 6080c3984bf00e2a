package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMetricsHandler(t *testing.T) {
	reg := Enable()
	defer Disable()
	reg.Counter("demo_total").Add(3)

	rec := httptest.NewRecorder()
	MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "# TYPE demo_total counter\ndemo_total 3\n") {
		t.Errorf("exposition missing counter:\n%s", body)
	}
}

func TestMetricsHandlerDisabled(t *testing.T) {
	Disable()
	rec := httptest.NewRecorder()
	MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Errorf("disabled registry: status %d, body %q", rec.Code, rec.Body.String())
	}
}

func TestInstrument(t *testing.T) {
	reg := Enable()
	defer Disable()

	h := Instrument("demo", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte("ok")) // implicit 200
	}))
	for _, path := range []string{"/", "/", "/missing"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	}

	if got := reg.Counter(`http_requests_total{handler="demo",code="200"}`).Value(); got != 2 {
		t.Errorf("200 count = %d, want 2", got)
	}
	if got := reg.Counter(`http_requests_total{handler="demo",code="404"}`).Value(); got != 1 {
		t.Errorf("404 count = %d, want 1", got)
	}
	if got := reg.Histogram(`http_request_seconds{handler="demo"}`, nil).Count(); got != 3 {
		t.Errorf("latency observations = %d, want 3", got)
	}
}

// Regression: streaming handlers must see their Flush reach the
// connection through the Instrument wrapper — before this test, the
// wrapper hid the underlying Flusher and SSE responses sat in the
// server's buffer until the handler returned.
func TestInstrumentForwardsFlush(t *testing.T) {
	reg := Enable()
	defer Disable()

	flushed := false
	h := Instrument("stream", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("data: x\n\n"))
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("ResponseWriter behind Instrument does not implement http.Flusher")
		}
		f.Flush()
		flushed = true
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if !flushed {
		t.Fatal("handler never reached Flush")
	}
	if !rec.Flushed {
		t.Error("Flush was not forwarded to the underlying writer")
	}
	if got := reg.Counter(`http_requests_total{handler="stream",code="200"}`).Value(); got != 1 {
		t.Errorf("request counted with code != 200 (200-count = %d)", got)
	}
}

// Regression: a WriteHeader arriving after the first body write must
// neither change the recorded status (the client already saw 200) nor
// be forwarded (net/http would log a superfluous-WriteHeader warning).
func TestInstrumentLateWriteHeader(t *testing.T) {
	reg := Enable()
	defer Disable()

	h := Instrument("late", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("body already out"))
		w.WriteHeader(http.StatusInternalServerError) // too late: must be ignored
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))

	if rec.Code != http.StatusOK {
		t.Errorf("underlying writer saw status %d, want 200", rec.Code)
	}
	if got := reg.Counter(`http_requests_total{handler="late",code="200"}`).Value(); got != 1 {
		t.Errorf("late WriteHeader misreported the request (200-count = %d, want 1)", got)
	}
	if got := reg.Counter(`http_requests_total{handler="late",code="500"}`).Value(); got != 0 {
		t.Errorf("late WriteHeader recorded as 500 (%d observations)", got)
	}
}

// Flush before any explicit write commits an implicit 200; the metric
// must reflect that, and a WriteHeader after the flush is late.
func TestInstrumentFlushCommitsStatus(t *testing.T) {
	reg := Enable()
	defer Disable()

	h := Instrument("flushfirst", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush()
		w.WriteHeader(http.StatusNotFound) // late: ignored
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if got := reg.Counter(`http_requests_total{handler="flushfirst",code="200"}`).Value(); got != 1 {
		t.Errorf("flush-first request not recorded as 200 (count = %d)", got)
	}
}

// Regression: the request counter must move when the status is
// written, not when the handler returns — a client that has read the
// response and scrapes /metrics before the handler's deferred work
// finishes must already see its request counted. The handler here
// writes its response, then blocks until the test has read the counter.
func TestInstrumentCountsWhenStatusWritten(t *testing.T) {
	reg := Enable()
	defer Disable()

	wrote := make(chan struct{})
	counted := make(chan struct{})
	h := Instrument("early", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte("done"))
		close(wrote)
		<-counted
	}))
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	}()

	<-wrote
	got := reg.Counter(`http_requests_total{handler="early",code="202"}`).Value()
	close(counted)
	<-served
	if got != 1 {
		t.Errorf("request counted %d times while the handler was still running, want 1", got)
	}
	if got := reg.Counter(`http_requests_total{handler="early",code="202"}`).Value(); got != 1 {
		t.Errorf("request counted %d times after the handler returned, want 1", got)
	}
}

// A handler that writes nothing still counts once, as an implicit 200.
func TestInstrumentCountsImplicitOK(t *testing.T) {
	reg := Enable()
	defer Disable()

	h := Instrument("silent", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if got := reg.Counter(`http_requests_total{handler="silent",code="200"}`).Value(); got != 1 {
		t.Errorf("silent handler counted %d times as 200, want 1", got)
	}
}
