package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// Native fuzz targets on the HTTP trust boundary: the shared
// decode-and-parse step of POST /v1/study and POST /v1/sweep. The seed
// corpus — the docs/API.md request examples, the scenarios/ sweep
// bodies and a few malformed inputs — runs under plain go test; run
//
//	go test -run '^$' -fuzz '^FuzzStudyRequest$' -fuzztime 10s ./internal/server/
//
// (likewise FuzzSweepRequest) to explore beyond it. Parsing never
// builds anything, so each input costs microseconds.

func FuzzStudyRequest(f *testing.F) { fuzzParse(f, studyKind) }

func FuzzSweepRequest(f *testing.F) { fuzzParse(f, sweepKind) }

// docExample matches a request body in docs/API.md's curl examples:
// `/v1/<kind> -d '<body>'`, possibly across a line continuation.
var docExample = regexp.MustCompile(`/v1/(study|sweep)\s*(?:\\\s*)?-d '([^']*)'`)

// fuzzSeeds returns the seed corpus shared by both targets: every body
// of either kind is a useful seed for the other, as input that must be
// refused cleanly.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	for _, m := range docExample.FindAllSubmatch(doc, -1) {
		seeds = append(seeds, m[2])
	}
	scenarios, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(scenarios) == 0 {
		tb.Fatalf("no scenario seeds (%v)", err)
	}
	for _, path := range scenarios {
		body, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	for _, bad := range []string{
		``, `null`, `[]`, `{`, `{"chips": -1}`, `{"chips": 1e99}`,
		`{"schemes": ["YAPD", "Turbo"]}`, `{"timeout_ms": -5}`,
		`{"precision": {"target_ci_width": 2}}`,
		`{"axes": [{"param": "vdd", "values": []}]}`,
		`{"constraints": [{"name": "nominal", "delay_sigma_k": 2}]}`,
	} {
		seeds = append(seeds, []byte(bad))
	}
	return seeds
}

// fuzzParse checks the parse step's contract for one job kind: it never
// panics; whatever it refuses, the endpoint answers 400 with class
// validation (and without admitting a job); and whatever it accepts
// parses again to the same canonical key.
func fuzzParse(f *testing.F, k *jobKind) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	srv := New(Config{Workers: 1, FlightInterval: -1})
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := k.parse(srv, body)
		if err != nil {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+k.name, bytes.NewReader(body)))
			var fail ErrorResponse
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &fail) != nil ||
				fail.Class != "validation" {
				t.Fatalf("refused body %q (%v) answered %d %s, want 400 class validation",
					body, err, rec.Code, rec.Body.Bytes())
			}
			return
		}
		again, err := k.parse(srv, body)
		if err != nil {
			t.Fatalf("body %q parsed once, then failed: %v", body, err)
		}
		if again.key() != req.key() {
			t.Fatalf("body %q parsed to keys %q and %q", body, req.key(), again.key())
		}
	})
}
