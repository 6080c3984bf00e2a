package obs

import (
	"net/http"
	"strconv"
	"time"
)

// MetricsHandler returns an http.Handler serving the default metrics
// registry in the Prometheus text exposition format — the /metrics
// endpoint of yieldd. With observability disabled it serves an empty
// (valid) exposition.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A nil default registry writes nothing, which is a valid
		// (empty) exposition.
		_ = Default().WritePrometheus(w)
	})
}

// statusWriter counts its request on http_requests_total{handler,code}
// the moment the status is first written — before any byte reaches the
// client, so a client holding the response already sees the request on
// /metrics. It forwards Flush to the underlying writer (streaming
// handlers — the SSE endpoints — break behind a wrapper that hides it)
// and exposes Unwrap so http.ResponseController reaches the
// connection's flush and deadline support through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	handler string
	code    int
}

// commit records the response status the first time one is written
// and counts the request; it reports whether this call was the first.
func (sw *statusWriter) commit(code int) bool {
	if sw.code != 0 {
		return false
	}
	sw.code = code
	C(`http_requests_total{handler="` + sw.handler + `",code="` + strconv.Itoa(code) + `"}`).Inc()
	return true
}

func (sw *statusWriter) WriteHeader(code int) {
	// A status already on the wire (explicitly, or implicitly via a
	// first Write) wins: recording this late code would misreport what
	// the client saw, and forwarding it would only trigger net/http's
	// "superfluous WriteHeader" warning.
	if sw.commit(code) {
		sw.ResponseWriter.WriteHeader(code)
	}
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.commit(http.StatusOK)
	return sw.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports flushing,
// so SSE and other streaming handlers work behind Instrument.
func (sw *statusWriter) Flush() {
	sw.commit(http.StatusOK)
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// Instrument wraps h with per-request metrics on the default registry:
// a counter http_requests_total{handler,code}, incremented when the
// status is written (a handler that writes nothing counts as an
// implicit 200 when it returns), and a latency histogram
// http_request_seconds{handler}, observed when the handler returns. The
// handler label should be a short static name (one per route), not the
// raw URL, to keep the series cardinality bounded.
func Instrument(handler string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, handler: handler}
		h.ServeHTTP(sw, r)
		sw.commit(http.StatusOK)
		H(`http_request_seconds{handler="`+handler+`"}`, ExpBuckets(1e-3, 4, 10)).
			Observe(time.Since(t0).Seconds())
	})
}
