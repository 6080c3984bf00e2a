package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"yieldcache/internal/store"
)

// lockedBuffer is a log sink that the server's goroutines may write
// while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// FuzzRecoverRecords fuzzes the records a restarting server reads back
// from its store: one job record (decoded from fuzzed JSON), a result
// body filed under the record's key, and a checkpoint for the job (a
// gob build checkpoint for a study, JSON for a sweep). The seed corpus
// is every record of testdata/job_records.golden.json. Run
//
//	go test -run '^$' -fuzz '^FuzzRecoverRecords$' -fuzztime 10s ./internal/server/
//
// to explore beyond it. Invariants: booting the server and draining
// the jobs it resumes never panics or hangs; an unreadable result body
// is dropped with a logged warning; a record with an unknown state is
// skipped with a logged warning; and a resumed job that fails logs
// why, under its id.
func FuzzRecoverRecords(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "job_records.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	var golden []json.RawMessage
	if err := json.Unmarshal(raw, &golden); err != nil {
		f.Fatal(err)
	}
	for _, rec := range golden {
		f.Add([]byte(rec), []byte(`{}`), []byte(nil))
		f.Add([]byte(rec), []byte(`{"configs": 1`), []byte(`{"results": [{"index": 0}, {"index": -3}]}`))
		f.Add([]byte(rec), []byte(`[]`), []byte("\x00garbage"))
	}
	f.Add([]byte(`{"id": "j000009", "seq": 9, "key": "k", "state": "queued", "chips": -5}`), []byte(nil), []byte(nil))
	f.Add([]byte(`{"id": "j000009", "seq": 9, "key": "k", "state": "zombie"}`), []byte(nil), []byte(nil))

	f.Fuzz(func(t *testing.T, recJSON, result, ckpt []byte) {
		var rec store.JobRecord
		if json.Unmarshal(recJSON, &rec) != nil {
			return // the store decodes frames, not this; FuzzWALReplay covers it
		}
		mem := store.NewMem()
		if err := mem.PutJob(rec); err != nil {
			t.Fatal(err)
		}
		if result != nil {
			if err := mem.PutResult(rec.Key, result); err != nil {
				t.Fatal(err)
			}
		}
		if ckpt != nil {
			if err := mem.PutCheckpoint(rec.ID, 0, ckpt); err != nil {
				t.Fatal(err)
			}
		}
		var logs lockedBuffer
		srv := New(Config{
			Workers: 1, MaxChips: 64, MaxSweepConfigs: 4,
			DefaultTimeout: 10 * time.Second, MaxTimeout: 10 * time.Second,
			CheckpointInterval: -1, FlightInterval: -1, Store: mem,
			Logger: slog.New(slog.NewJSONHandler(&logs, nil)),
		})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Fatalf("record %s: resumed jobs did not finish: %v", recJSON, err)
		}
		srv.Close()
		out := logs.String()

		if result != nil {
			body := any(new(StudyResponse))
			if strings.HasPrefix(rec.Key, sweepKeyPrefix) {
				body = new(SweepResponse)
			}
			if json.Unmarshal(result, body) != nil && !strings.Contains(out, "recovered result unreadable") {
				t.Errorf("unreadable result body %q recovered without a warning; logs:\n%s", result, out)
			}
		}
		switch rec.State {
		case jobQueued, jobRunning:
			j, ok := srv.jobsReg.get(rec.ID)
			if !ok {
				t.Fatalf("resumable record %s is not in the job registry", recJSON)
			}
			srv.jobsReg.mu.Lock()
			state := j.state
			srv.jobsReg.mu.Unlock()
			if state == jobFailed && !loggedFailure(out, rec.ID) {
				t.Errorf("resumed job %q failed without a logged reason; logs:\n%s", rec.ID, out)
			}
		case jobDone, jobFailed:
		default:
			if _, ok := srv.jobsReg.get(rec.ID); ok {
				t.Errorf("record with unknown state %q was restored", rec.State)
			}
			if !strings.Contains(out, "unknown state") {
				t.Errorf("record with unknown state %q skipped without a warning; logs:\n%s", rec.State, out)
			}
		}
	})
}

// loggedFailure reports whether the JSON log holds a warning or error
// record about job id.
func loggedFailure(logs, id string) bool {
	for _, line := range strings.Split(logs, "\n") {
		var r struct{ Level, Job string }
		if json.Unmarshal([]byte(line), &r) == nil && r.Job == id && (r.Level == "WARN" || r.Level == "ERROR") {
			return true
		}
	}
	return false
}

// TestRecoverRefusesOutOfRangeRecords: a persisted job whose parameters
// the resuming server would refuse on POST — a non-positive or
// over-limit population, an unknown scheme, an oversized sweep — fails
// with a logged reason instead of crashing the server from the job's
// goroutine (negative chips and unknown schemes both panicked in the
// build before restore re-checked them).
func TestRecoverRefusesOutOfRangeRecords(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "job_records.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden []store.JobRecord
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	var study, sweep store.JobRecord
	for _, rec := range golden {
		if rec.State != jobQueued {
			continue
		}
		if rec.Kind == "" {
			study = rec
		} else {
			sweep = rec
		}
	}
	withSpec := func(mut func(*sweepCanonical)) store.JobRecord {
		rec := sweep
		var can sweepCanonical
		if err := json.Unmarshal(rec.Spec, &can); err != nil {
			t.Fatal(err)
		}
		mut(&can)
		if rec.Spec, err = json.Marshal(can); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	cases := []struct {
		name string
		rec  store.JobRecord
		want string
	}{
		{"negative chips", func() store.JobRecord { r := study; r.Chips = -5; return r }(), "chips must be positive"},
		{"over-limit chips", func() store.JobRecord { r := study; r.Chips = 1 << 30; return r }(), "exceeds the server limit"},
		{"unknown scheme", func() store.JobRecord { r := study; r.Schemes = []string{"APD"}; return r }(), "unknown scheme"},
		{"sweep unknown scheme", withSpec(func(c *sweepCanonical) { c.Schemes = []string{"Turbo"} }), "unknown scheme"},
		{"sweep over-limit chips", withSpec(func(c *sweepCanonical) { c.Spec.N = 1 << 30 }), "exceeds the server limit"},
		{"sweep too many configs", withSpec(func(c *sweepCanonical) {
			c.Spec.Axes[0].Values = make([]float64, 300)
		}), "exceeding the server limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := store.NewMem()
			if err := mem.PutJob(tc.rec); err != nil {
				t.Fatal(err)
			}
			var logs lockedBuffer
			srv := New(Config{Workers: 1, Store: mem, CheckpointInterval: -1, FlightInterval: -1,
				Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
			drain(t, srv)
			j, ok := srv.jobsReg.get(tc.rec.ID)
			if !ok {
				t.Fatal("record not restored")
			}
			srv.jobsReg.mu.Lock()
			state, msg := j.state, j.errMsg
			srv.jobsReg.mu.Unlock()
			if state != jobFailed || !strings.Contains(msg, tc.want) {
				t.Errorf("job state %q error %q, want failed with %q", state, msg, tc.want)
			}
			if !loggedFailure(logs.String(), tc.rec.ID) {
				t.Errorf("failure not logged:\n%s", logs.String())
			}
		})
	}

	mem := store.NewMem()
	zombie := study
	zombie.State = "zombie"
	if err := mem.PutJob(zombie); err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	srv := New(Config{Workers: 1, Store: mem, CheckpointInterval: -1, FlightInterval: -1,
		Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	drain(t, srv)
	if _, ok := srv.jobsReg.get(zombie.ID); ok || !loggedFailure(logs.String(), zombie.ID) {
		t.Errorf("record in an unknown state: restored %v, want skipped with a warning:\n%s", ok, logs.String())
	}
}
