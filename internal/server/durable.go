package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"yieldcache"
	"yieldcache/internal/obs"
	"yieldcache/internal/store"
)

// maxIdemKeyLen bounds the Idempotency-Key header so a hostile client
// cannot stuff arbitrary blobs into the idempotency map and the WAL.
const maxIdemKeyLen = 256

// storeDo runs one storage operation through the bounded-retry helper
// and logs (but never propagates) a final failure: storage errors
// degrade durability, they do not fail requests.
func (s *Server) storeDo(op string, fn func() error) {
	if s.store == nil {
		return
	}
	if err := store.Do(op, fn); err != nil {
		s.log.Warn("store operation failed; durability degraded", "op", op, "error", err)
	}
}

// persistJob appends the job's current lifecycle state to the store.
// The non-synchronised job fields read here (started, class, errMsg)
// are only ever written by the goroutine calling persistJob, so the
// reads are race-free.
func (s *Server) persistJob(j *job, req jobRequest, state string) {
	if s.store == nil {
		return
	}
	in := req.info()
	rec := store.JobRecord{
		ID: j.id, Seq: j.seq, Key: j.key, State: state,
		Seed: in.seed, Chips: in.chips, ConsName: in.constraints,
		Schemes: in.schemes, TimeoutMS: in.timeout.Milliseconds(),
		Kind:          j.kind,
		EarlyStop:     j.earlyStop.Load(),
		Restarts:      j.restarts,
		QueueWaitMS:   j.priorWaitMS,
		CreatedUnixMS: j.created.UnixMilli(),
	}
	req.fillRecord(&rec)
	if state != jobQueued && !j.started.IsZero() {
		rec.QueueWaitMS = j.priorWaitMS + j.started.Sub(j.admitted).Seconds()*1e3
	}
	if state == jobDone || state == jobFailed {
		rec.Class = string(j.class)
		rec.Error = j.errMsg
	}
	s.storeDo("put_job", func() error { return s.store.PutJob(rec) })
}

// persistOutcome records a job's terminal state: the final job record,
// the cached result body, evicted results, expired idempotency keys,
// and the checkpoint that is no longer needed.
func (s *Server) persistOutcome(j *job, req jobRequest, c *call, cached bool, evicted, expiredIdem []string) {
	if s.store == nil {
		return
	}
	state := jobDone
	if c.err != nil {
		state = jobFailed
	}
	s.persistJob(j, req, state)
	if cached {
		if body, err := json.Marshal(c.res); err == nil {
			s.storeDo("put_result", func() error { return s.store.PutResult(j.key, body) })
		}
	}
	for _, old := range evicted {
		s.storeDo("delete_result", func() error { return s.store.DeleteResult(old) })
	}
	for _, ik := range expiredIdem {
		s.storeDo("delete_idem", func() error { return s.store.DeleteIdem(ik) })
	}
	if s.cfg.CheckpointInterval > 0 || req.info().resumed > 0 {
		s.storeDo("delete_checkpoint", func() error { return s.store.DeleteCheckpoint(j.id) })
	}
}

// checkpointSink returns the build-checkpoint callback for one job:
// encode, persist with retry, and announce on the event bus. A sink
// error skips that checkpoint; the build carries on.
//
// The sink self-clocks against the storage it writes to: a checkpoint
// snapshot grows with the build (retained draws are O(chips)), and on
// slow disks persisting one can take far longer than the configured
// interval. Each persisted checkpoint therefore postpones the next by
// its own cost, so slow storage degrades checkpoint granularity —
// bounded at a ~50% duty cycle of the publishing worker — instead of
// starving the build itself.
func (s *Server) checkpointSink(j *job) func(*yieldcache.BuildCheckpoint) error {
	jobID := j.id
	var wrote time.Time    // when the last persisted checkpoint finished
	var cost time.Duration // how long it took to persist
	return func(bc *yieldcache.BuildCheckpoint) error {
		if !wrote.IsZero() && time.Since(wrote) < cost {
			return nil // still paying for the last write: skip this offer
		}
		var buf bytes.Buffer
		if err := bc.Encode(&buf); err != nil {
			return err
		}
		t0 := time.Now()
		if err := store.Do("put_checkpoint", func() error {
			return s.store.PutCheckpoint(jobID, bc.Done, buf.Bytes())
		}); err != nil {
			s.log.Warn("checkpoint persist failed", "job", jobID, "chips", bc.Done, "error", err)
			return err
		}
		wrote = time.Now()
		cost = wrote.Sub(t0)
		s.bus.Publish(obs.Event{Type: obs.EventJobCheckpoint, Job: jobID,
			Done: int64(bc.Done), Total: int64(bc.N)})
		return nil
	}
}

// recordIdem binds an Idempotency-Key to the study that answers it, in
// memory and (when a store is attached) durably. No-op without a key.
// Idempotency works store-less too — it then lasts one process
// lifetime, like the rest of the in-memory state.
func (s *Server) recordIdem(idemKey, bodyHash, studyKey, jobID string) {
	if idemKey == "" {
		return
	}
	rec := store.IdemRecord{Key: idemKey, BodyHash: bodyHash, StudyKey: studyKey, JobID: jobID}
	s.mu.Lock()
	s.idem[idemKey] = rec
	s.idemByKey[studyKey] = append(s.idemByKey[studyKey], idemKey)
	s.mu.Unlock()
	s.storeDo("put_idem", func() error { return s.store.PutIdem(rec) })
}

// idemLookupLocked resolves a recorded Idempotency-Key while s.mu is
// held. When it fully answers the request — body-hash conflict (409),
// replay of the recorded response, or coalescing onto the in-flight
// build — it unlocks and returns true. Otherwise the stale record (if
// any) is expired and the caller proceeds with the lock still held.
func (s *Server) idemLookupLocked(w http.ResponseWriter, r *http.Request, idemKey, bodyHash string, req jobRequest) bool {
	rec, ok := s.idem[idemKey]
	if !ok {
		return false
	}
	if rec.BodyHash != bodyHash {
		s.mu.Unlock()
		obs.C("server_idempotency_conflicts_total").Inc()
		s.log.Warn("idempotency key reused with different body", "job", rec.JobID)
		writeErrorClass(w, http.StatusConflict, obs.ClassValidation,
			"Idempotency-Key was already used with a different request body")
		return true
	}
	if res, hit := s.cache[rec.StudyKey]; hit {
		s.mu.Unlock()
		obs.C("server_idempotent_replays_total").Inc()
		if j, found := s.jobsReg.lookupKey(rec.StudyKey); found {
			j.cacheHits.Add(1)
		}
		w.Header().Set("Idempotency-Replayed", "true")
		s.log.Debug(req.kind().name+" replayed for idempotency key", "job", rec.JobID, "key", rec.StudyKey)
		writeResult(w, req, res, true, rec.JobID)
		return true
	}
	if c, flying := s.inflight[rec.StudyKey]; flying {
		s.mu.Unlock()
		obs.C(req.kind().metric("coalesced")).Inc()
		c.job.coalesced.Add(1)
		s.await(w, r, c, req)
		return true
	}
	// The recorded result was evicted (or its build failed): the key
	// expired with the cache entry. Forget it and retry fresh.
	delete(s.idem, idemKey)
	go s.storeDo("delete_idem", func() error { return s.store.DeleteIdem(idemKey) })
	return false
}

// expireIdemLocked drops every idempotency record bound to an evicted
// study key, returning the expired keys so the caller can delete them
// from the store after releasing s.mu. Caller holds s.mu.
func (s *Server) expireIdemLocked(studyKey string) []string {
	keys := s.idemByKey[studyKey]
	delete(s.idemByKey, studyKey)
	expired := keys[:0]
	for _, ik := range keys {
		if _, ok := s.idem[ik]; ok {
			delete(s.idem, ik)
			expired = append(expired, ik)
		}
	}
	return expired
}

// recordTimeout is a persisted job's timeout; records without one take
// the server default.
func (s *Server) recordTimeout(rec store.JobRecord) time.Duration {
	if rec.TimeoutMS <= 0 {
		return s.cfg.DefaultTimeout
	}
	return time.Duration(rec.TimeoutMS) * time.Millisecond
}

// restoreStudy rebuilds the canonical study parameters from a persisted
// job record, so a resumed build runs exactly the study the crashed
// server admitted, continuing from its checkpoint when that decodes.
func restoreStudy(s *Server, rec store.JobRecord, ckpt []byte) (jobRequest, error) {
	if err := s.checkChips(rec.Chips); err != nil {
		return nil, err
	}
	schemes, err := normalizeSchemes(rec.Schemes)
	if err != nil {
		return nil, err
	}
	p := params{
		seed:       rec.Seed,
		chips:      rec.Chips,
		cons:       yieldcache.Constraints{Name: rec.ConsName, DelaySigmaK: rec.DelaySigmaK, LeakageMult: rec.LeakageMult},
		schemes:    schemes,
		timeout:    s.recordTimeout(rec),
		targetCI:   rec.TargetCIWidth,
		confidence: rec.Confidence,
	}
	if p.confidence <= 0 {
		// Records from before the estimation layer carry no confidence.
		p.confidence = 0.95
	}
	if ckpt != nil {
		bc, err := yieldcache.DecodeBuildCheckpoint(bytes.NewReader(ckpt))
		if err != nil {
			s.log.Warn("checkpoint unreadable; resuming from scratch", "job", rec.ID, "error", err)
		} else {
			p.resume = bc
		}
	}
	return p, nil
}

// recoverFromStore replays the store into the server's in-memory state:
// the result cache (in original FIFO order), live idempotency records,
// finished-job history, and — the point of the exercise — re-admits
// every job that was queued or running when the last process died,
// resuming each from its newest readable checkpoint. Runs once from
// New, before the server serves any request.
func (s *Server) recoverFromStore() {
	if s.store == nil {
		return
	}
	rec, err := s.store.Recover()
	if err != nil {
		s.log.Error("store recovery failed; starting empty", "error", err)
		return
	}

	if s.cfg.CacheEntries > 0 {
		start := 0
		if len(rec.Results) > s.cfg.CacheEntries {
			start = len(rec.Results) - s.cfg.CacheEntries
		}
		for _, res := range rec.Results[start:] {
			body := any(new(StudyResponse))
			if strings.HasPrefix(res.Key, sweepKeyPrefix) {
				body = new(SweepResponse)
			}
			if err := json.Unmarshal(res.Body, body); err != nil {
				s.log.Warn("recovered result unreadable; dropped", "key", res.Key, "error", err)
				continue
			}
			s.cache[res.Key] = body
			s.order = append(s.order, res.Key)
		}
	}

	resumable := make(map[string]bool)
	for _, jr := range rec.Jobs {
		if jr.State == jobQueued || jr.State == jobRunning {
			resumable[jr.Key] = true
		}
	}
	for _, ir := range rec.Idem {
		if _, cached := s.cache[ir.StudyKey]; cached || resumable[ir.StudyKey] {
			s.idem[ir.Key] = ir
			s.idemByKey[ir.StudyKey] = append(s.idemByKey[ir.StudyKey], ir.Key)
		} else {
			// The result this key replayed is gone: expired.
			ik := ir.Key
			s.storeDo("delete_idem", func() error { return s.store.DeleteIdem(ik) })
		}
	}

	resumed := 0
	for _, jr := range rec.Jobs {
		switch jr.State {
		case jobDone, jobFailed:
			s.jobsReg.restoreFinished(jr, s.log)
		case jobQueued, jobRunning:
			s.resumeJob(jr)
			resumed++
		default:
			s.log.Warn("job record has an unknown state; skipped", "job", jr.ID, "state", jr.State)
		}
	}
	obs.C("server_store_recoveries_total").Inc()
	obs.G("server_jobs_resumed").Set(float64(resumed))
	s.log.Info("store recovered",
		"results", len(s.order), "jobs", len(rec.Jobs), "resumed", resumed, "idem_keys", len(s.idem))
}

// resumeJob re-admits one interrupted job under its original id,
// loading its newest checkpoint so the job continues where the dead
// process stopped (an unreadable checkpoint falls back to a full
// rerun — correctness never depends on the checkpoint). A record its
// kind cannot rebuild fails the job terminally: there is nothing to
// re-run.
func (s *Server) resumeJob(jr store.JobRecord) {
	k := kindOf(jr.Kind)
	var ckpt []byte
	if data, _, err := s.store.Checkpoint(jr.ID); err == nil {
		ckpt = data
	}
	req, err := k.restore(s, jr, ckpt)
	if err != nil {
		s.log.Warn(k.name+" spec unreadable; job failed", "job", jr.ID, "error", err)
		jr.State = jobFailed
		jr.Class = string(obs.ClassInternal)
		jr.Error = k.name + " spec unreadable after restart: " + err.Error()
		s.jobsReg.restoreFinished(jr, s.log)
		s.storeDo("put_job", func() error { return s.store.PutJob(jr) })
		return
	}

	in := req.info()
	j := s.jobsReg.restoreResumed(jr, s.log)
	c := &call{done: make(chan struct{}), job: j}
	s.mu.Lock()
	s.inflight[jr.Key] = c
	s.jobs++
	admitted := s.jobs
	s.mu.Unlock()
	obs.G("server_jobs_admitted").Set(float64(admitted))
	obs.C("server_jobs_resumed_total").Inc()
	s.wg.Add(1)
	s.bus.Publish(obs.Event{Type: obs.EventJobResumed, Job: j.id, Key: jr.Key,
		Done: int64(in.resumed), Total: int64(in.total), Restarts: j.restarts})
	j.scope.Log().Info("job resumed from store", "kind", k.name,
		"restarts", j.restarts, "checkpoint_done", in.resumed, "total", in.total,
		"seed", in.seed, "chips", in.chips)
	// Persist the bumped restart count right away, so a crash during
	// the resumed job counts this lifetime too.
	s.persistJob(j, req, jobQueued)
	go s.run(req, c)
}

// restoreLocked rebuilds a persisted job's registry entry under its
// original id — X-Job-Id stays valid across the restart. The caller
// holds r.mu and completes the entry as history or as a resumed job.
func (r *jobRegistry) restoreLocked(rec store.JobRecord, base *slog.Logger) *job {
	r.seq = max(r.seq, rec.Seq)
	j := &job{
		id: rec.ID, seq: rec.Seq, key: rec.Key,
		kind:  rec.Kind,
		scope: obs.NewScope(rec.ID, base),
		seed:  rec.Seed, chips: rec.Chips,
		constraints: rec.ConsName, schemes: rec.Schemes,
		created:     time.UnixMilli(rec.CreatedUnixMS),
		restarts:    rec.Restarts,
		priorWaitMS: rec.QueueWaitMS,
	}
	r.byID[j.id] = j
	return j
}

// restoreFinished rebuilds one finished job's history entry from its
// persisted record, with its progress total in its kind's unit. Span
// traces and exact timings died with the old process; identity,
// outcome and provenance survive.
func (r *jobRegistry) restoreFinished(rec store.JobRecord, base *slog.Logger) {
	total := kindOf(rec.Kind).total(rec)
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.restoreLocked(rec, base)
	j.state, j.class, j.errMsg = rec.State, obs.ErrClass(rec.Class), rec.Error
	j.admitted = j.created
	j.earlyStop.Store(rec.EarlyStop)
	j.scope.SetProgressTotal(int64(total))
	if rec.State == jobDone && !rec.EarlyStop {
		j.scope.AddProgress(int64(total))
	}
	if rec.State == jobDone {
		r.byKey[j.key] = j
	}
	r.done = append(r.done, j)
	r.evictLocked()
}

// restoreResumed rebuilds an interrupted job with its restart count
// bumped and its past queue waits carried in priorWaitMS.
func (r *jobRegistry) restoreResumed(rec store.JobRecord, base *slog.Logger) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.restoreLocked(rec, base)
	j.state, j.restarts, j.admitted = jobQueued, rec.Restarts+1, time.Now()
	j.scope.AttachEvents(r.bus, r.streamInterval)
	r.byKey[j.key] = j
	return j
}
