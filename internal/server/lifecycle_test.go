package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"yieldcache/internal/store"
)

// recordingStore keeps every job record the server persists, in order.
type recordingStore struct {
	store.Store
	mu   sync.Mutex
	jobs []store.JobRecord
}

func (r *recordingStore) PutJob(rec store.JobRecord) error {
	r.mu.Lock()
	r.jobs = append(r.jobs, rec)
	r.mu.Unlock()
	return r.Store.PutJob(rec)
}

func (r *recordingStore) records() []store.JobRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]store.JobRecord(nil), r.jobs...)
}

// maskTimes zeroes the wall-clock fields of job records so they compare
// across runs.
func maskTimes(recs []store.JobRecord) []store.JobRecord {
	out := make([]store.JobRecord, len(recs))
	for i, rec := range recs {
		rec.CreatedUnixMS, rec.QueueWaitMS = 0, 0
		out[i] = rec
	}
	return out
}

const (
	goldenStudyBody = `{"chips": 20, "seed": 2006}`
	goldenSweepBody = `{"chips": 20, "seed": 2006, "axes": [{"param": "vdd", "values": [1.1, 1.05]}]}`
)

// getJobDetail fetches GET /v1/jobs/{id}.
func getJobDetail(t *testing.T, url, id string) JobDetail {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d", id, resp.StatusCode)
	}
	var d JobDetail
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// awaitJobDone polls a job until it reaches a terminal state.
func awaitJobDone(t *testing.T, url, id string) JobDetail {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		d := getJobDetail(t, url, id)
		if d.State == jobDone || d.State == jobFailed {
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, d.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// The store.JobRecord the server writes for a study and a sweep in
// each of the queued, running and done states is pinned, timestamps
// masked, against records written by the previous server generation:
// a store written before an upgrade must stay readable after it. The
// golden file is fixed data; edit it by hand only when a record format
// is deliberately changed.
func TestGoldenJobRecords(t *testing.T) {
	rs := &recordingStore{Store: store.NewMem()}
	srv := New(Config{Workers: 1, Store: rs, CheckpointInterval: -1, FlightInterval: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if resp, _, _ := postStudyIdem(t, ts.URL, goldenStudyBody, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("study: status %d", resp.StatusCode)
	}
	if resp, _, _ := postSweep(t, ts.URL, goldenSweepBody, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	drain(t, srv)

	got, err := json.MarshalIndent(maskTimes(rs.records()), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "job_records.golden.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Errorf("persisted job records differ from %s:\n got %s\nwant %s", path, got, want)
	}
}

// A store seeded with the golden records — as the previous server
// generation wrote them — recovers on the shared lifecycle path: an
// interrupted study or sweep resumes under its id and finishes with
// progress in its own unit, writing records of the same shape; a
// finished one is restored into the job history.
func TestGoldenJobRecordsRecover(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "job_records.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden []store.JobRecord
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	// id -> state -> record
	byState := make(map[string]map[string]store.JobRecord)
	for _, rec := range golden {
		if byState[rec.ID] == nil {
			byState[rec.ID] = make(map[string]store.JobRecord)
		}
		byState[rec.ID][rec.State] = rec
	}
	totals := map[string]int64{"": 20, "sweep": 2} // chips, configs

	for id, states := range byState {
		kind := states[jobDone].Kind
		for _, state := range []string{jobQueued, jobRunning, jobDone} {
			t.Run(id+"/"+state, func(t *testing.T) {
				mem := store.NewMem()
				if err := mem.PutJob(states[state]); err != nil {
					t.Fatal(err)
				}
				rs := &recordingStore{Store: mem}
				srv := New(Config{Workers: 1, Store: rs, CheckpointInterval: -1, FlightInterval: -1})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				defer drain(t, srv)

				d := awaitJobDone(t, ts.URL, id)
				if d.State != jobDone || d.Kind != kind {
					t.Fatalf("recovered job: state %q kind %q (%s), want done/%q", d.State, d.Kind, d.Error, kind)
				}
				if d.ChipsDone != totals[kind] || d.ChipsTotal != totals[kind] {
					t.Errorf("recovered job progress %d/%d, want %d/%d",
						d.ChipsDone, d.ChipsTotal, totals[kind], totals[kind])
				}
				if state == jobDone {
					if d.Resumed {
						t.Error("a finished job was resumed")
					}
					return
				}
				if d.Restarts != 1 {
					t.Errorf("resumed job restarts = %d, want 1", d.Restarts)
				}
				// The resumed job's records match the golden ones but for
				// the bumped restart count.
				drain(t, srv)
				recs := maskTimes(rs.records())
				if len(recs) != 3 {
					t.Fatalf("resumed job wrote %d records, want queued, running, done", len(recs))
				}
				for i, st := range []string{jobQueued, jobRunning, jobDone} {
					want := maskTimes([]store.JobRecord{states[st]})[0]
					want.Restarts = 1
					g, _ := json.Marshal(recs[i])
					w, _ := json.Marshal(want)
					if string(g) != string(w) {
						t.Errorf("resumed %s record:\n got %s\nwant %s", st, g, w)
					}
				}
			})
		}
	}
}

// A finished sweep restored after a restart reports its progress in
// configs, as it did before the restart — not in chips per config.
func TestRestoredSweepProgressCountsConfigs(t *testing.T) {
	st := store.NewMem()
	srv1 := New(Config{Workers: 1, Store: st, FlightInterval: -1})
	ts1 := httptest.NewServer(srv1.Handler())
	resp, first, _ := postSweep(t, ts1.URL, goldenSweepBody, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Job-Id")
	drain(t, srv1)
	ts1.Close()

	srv2 := New(Config{Workers: 1, Store: st, FlightInterval: -1})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer drain(t, srv2)
	d := getJobDetail(t, ts2.URL, id)
	if d.State != jobDone || d.Kind != "sweep" {
		t.Fatalf("restored sweep: state %q kind %q, want done/sweep", d.State, d.Kind)
	}
	want := int64(first.Configs)
	if d.ChipsTotal != want || d.ChipsDone != want {
		t.Errorf("restored sweep progress %d/%d, want %d/%d configs", d.ChipsDone, d.ChipsTotal, want, want)
	}
}

// build_chips_per_second counts chips: sweep jobs, whose progress runs
// in configs, stay out of the chip sum behind it.
func TestChipSumCountsStudiesOnly(t *testing.T) {
	srv := New(Config{Workers: 1, FlightInterval: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if resp, _, _ := postStudyIdem(t, ts.URL, goldenStudyBody, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("study: status %d", resp.StatusCode)
	}
	if resp, _, _ := postSweep(t, ts.URL, goldenSweepBody, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	drain(t, srv)
	if got := srv.jobsReg.totalChips(); got != 20 {
		t.Errorf("chip sum = %d, want the study's 20 chips alone", got)
	}
}
