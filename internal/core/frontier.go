package core

import (
	"math"
	"sync/atomic"
	"time"

	"yieldcache/internal/obs"
	"yieldcache/internal/sram"
)

// publisher is a build's one prefix-frontier publisher. Worker w
// measures chips base+w, base+w+W, … and, after finishing a batch
// ending at chip i, stores i+W as its frontier. P = min over worker
// frontiers is then a consistent prefix: every chip below P was
// finished before the store that made it visible (atomic store/load
// order), so chips [0, P) are immutable and fully measured — no locks,
// no copying. Frontiers move at batch boundaries, so P is always
// batch-aligned.
//
// The publisher has no goroutine of its own. Whichever worker first
// crosses the earliest subscriber deadline CAS-elects itself and hands
// P to every subscriber that is due: the checkpointer (periodic Sink
// calls for crash resume) and the estimator (yield snapshots and the
// precision stopping rule). Both subscribers live inside the publisher,
// so arming either or both costs exactly two allocations per build —
// the publisher and its frontier slice — and a build with neither has
// no publisher at all. Successive elected workers are ordered by the
// CAS, so subscriber state is effectively single-threaded.
type publisher struct {
	frontier []atomic.Int64
	n        int
	next     atomic.Int64 // unix nanos of the earliest subscriber deadline
	electing atomic.Int32 // CAS gate: one publishing worker at a time
	stop     atomic.Bool  // the estimator's stopping rule fired
	// Each subscriber's next deadline in unix nanos, MaxInt64 when it is
	// not armed; only the elected worker touches them.
	ckpDue, estDue int64
	ckp            checkpointer
	est            estimator
}

// newPublisher returns the build's publisher; nil when neither
// checkpointing nor estimation is armed.
func newPublisher(cfg *PopulationConfig, base int, pair bool, geom sram.Geometry, reg, hor []Chip) *publisher {
	ck, ec := cfg.Checkpoint, cfg.Estimate
	ckOn := ck != nil && ck.Sink != nil && ck.Interval > 0
	estOn := ec != nil && (ec.Sink != nil || ec.TargetCIWidth > 0)
	if !ckOn && !estOn {
		return nil
	}
	p := &publisher{
		frontier: make([]atomic.Int64, cfg.Workers),
		n:        cfg.N,
	}
	now := time.Now().UnixNano()
	p.ckpDue, p.estDue = math.MaxInt64, math.MaxInt64
	if ckOn {
		p.ckp = checkpointer{
			interval: int64(ck.Interval),
			last:     base,
			sink:     ck.Sink,
			buf:      BuildCheckpoint{Seed: cfg.Seed, N: cfg.N, Pair: pair, Tech: *cfg.Tech, Geom: geom},
			reg:      reg,
			hor:      hor,
		}
		p.ckpDue = now + p.ckp.interval
	}
	if estOn {
		p.est = estimator{cfg: *ec, reg: reg}
		p.est.cfg.fill()
		p.est.interval = int64(p.est.cfg.Interval)
		p.estDue = now + p.est.interval
	}
	for w := range p.frontier {
		p.frontier[w].Store(int64(base + w))
	}
	p.next.Store(min(p.ckpDue, p.estDue))
	return p
}

// advance is the worker loop's one per-batch call: worker w has just
// measured bn chips, the last of them chip i. It counts the batch on
// the scope's progress and, with a publisher, stores w's frontier and
// publishes if a subscriber is due and no other worker is publishing.
// Nil-safe; the off-deadline fast path is one atomic store plus one
// clock read and one atomic load.
func (p *publisher) advance(scope *obs.Scope, w, i, bn int) {
	scope.AddProgress(int64(bn))
	if p == nil {
		return
	}
	p.frontier[w].Store(int64(i + len(p.frontier)))
	now := time.Now().UnixNano()
	if now < p.next.Load() || !p.electing.CompareAndSwap(0, 1) {
		return
	}
	// The subscribers' own deadlines are re-checked under the gate: a
	// racing worker may have just published and pushed them forward.
	prefix := p.min()
	if now >= p.ckpDue {
		p.ckpDue = now + p.ckp.interval
		if prefix > p.ckp.last {
			p.ckp.publish(prefix)
		}
	}
	if now >= p.estDue {
		p.estDue = now + p.est.interval
		if prefix > p.est.last && p.est.publish(prefix) {
			p.stop.Store(true)
		}
	}
	p.next.Store(min(p.ckpDue, p.estDue))
	p.electing.Store(0)
}

// min returns the consistent frontier: every chip below it is measured.
func (p *publisher) min() int {
	m := int64(p.n)
	for w := range p.frontier {
		if f := p.frontier[w].Load(); f < m {
			m = f
		}
	}
	return int(m)
}

// stopped reports whether the precision target has fired; workers poll
// it at batch boundaries alongside the cancellation flag. Nil-safe.
func (p *publisher) stopped() bool {
	return p != nil && p.stop.Load()
}

// finish runs after the workers have joined, so there is no election
// to take. It returns how many chips the build keeps — the decision
// frontier when the stopping rule fired, else n — and the estimator's
// terminal snapshot over them, published to the Sink and nil when
// estimation is not armed. The snapshot is the estimator's buffer,
// which nothing writes once the build is over. Nil-safe.
func (p *publisher) finish(n int) (int, *YieldEstimate) {
	if p == nil || p.est.interval == 0 {
		return n, nil
	}
	e := &p.est
	if e.stopAt > 0 {
		n = e.stopAt
	}
	e.snapshot(n)
	e.buf.EarlyStop = e.stopAt > 0
	if e.cfg.Sink != nil {
		e.cfg.Sink(&e.buf)
	}
	return n, &e.buf
}
