package core

import (
	"fmt"
	"time"

	"yieldcache/internal/obs"
	"yieldcache/internal/sram"
)

// CheckpointConfig turns on periodic build checkpointing and, when
// Resume is set, continues an interrupted build from its saved prefix.
//
// Checkpoints come from the build's prefix-frontier publisher: each
// one holds the consistent prefix Regular[:P] /
// Horizontal[:P] of chips every worker has finished — immutable, fully
// measured, no locks, no copying — and the hot loop pays one frontier
// store plus a deadline check per batch only while a subscriber is
// armed. The prefix is always batch-aligned: a resumed build restarts
// at a batch edge and re-measures no partially-published batch.
type CheckpointConfig struct {
	// Interval is the time between checkpoint attempts; zero or
	// negative disables the checkpointer (Resume still works).
	Interval time.Duration
	// Sink receives each checkpoint. The pointed-to chips alias the
	// live build arena: the prefix is immutable, but the Sink must
	// finish with it (encode, hash) before returning and must not
	// retain the slices. A Sink error skips that checkpoint; the build
	// carries on and tries again next interval.
	Sink func(*BuildCheckpoint) error
	// Resume, when set, seeds the build with a previously checkpointed
	// prefix: chips below Resume.Done are copied into the arena and
	// measurement starts at Done. The checkpoint's seed, size, mode and
	// model must match the build's.
	Resume *BuildCheckpoint
}

// validateResume checks that a checkpoint belongs to this build and
// is well formed.
func validateResume(r *BuildCheckpoint, cfg *PopulationConfig, pair bool, geom sram.Geometry) error {
	switch {
	case r.Seed != cfg.Seed:
		return fmt.Errorf("core: resume checkpoint seed %d, build seed %d", r.Seed, cfg.Seed)
	case r.N != cfg.N:
		return fmt.Errorf("core: resume checkpoint for %d chips, build wants %d", r.N, cfg.N)
	case r.Pair != pair:
		return fmt.Errorf("core: resume checkpoint pair=%v, build pair=%v", r.Pair, pair)
	case r.Geom != geom:
		return fmt.Errorf("core: resume checkpoint geometry %+v, build geometry %+v", r.Geom, geom)
	case r.Tech != *cfg.Tech:
		return fmt.Errorf("core: resume checkpoint built under a different technology model")
	}
	return r.validate()
}

// validate checks a checkpoint's internal consistency: the frontier
// lies within the build, each stored prefix holds exactly Done chips,
// and every chip has the way/bank/path shape Geom describes. Resume
// copies chips into an arena of that shape, so a short chip would
// index out of range.
func (c *BuildCheckpoint) validate() error {
	if c.Done < 0 || c.Done > c.N || len(c.Regular) != c.Done || (c.Pair && len(c.Horizontal) != c.Done) {
		return fmt.Errorf("core: checkpoint inconsistent: done=%d n=%d regular=%d horizontal=%d",
			c.Done, c.N, len(c.Regular), len(c.Horizontal))
	}
	for i := 0; i < c.Done; i++ {
		if !shaped(&c.Regular[i].Meas, c.Geom) || (c.Pair && !shaped(&c.Horizontal[i].Meas, c.Geom)) {
			return fmt.Errorf("core: checkpoint inconsistent: chip %d does not have geometry %+v", i, c.Geom)
		}
	}
	return nil
}

// shaped reports whether m has exactly the nested slice lengths of g.
func shaped(m *sram.CacheMeasurement, g sram.Geometry) bool {
	if len(m.Ways) != g.Ways {
		return false
	}
	for w := range m.Ways {
		if len(m.Ways[w].Banks) != g.BanksPerWay {
			return false
		}
		for b := range m.Ways[w].Banks {
			if len(m.Ways[w].Banks[b].Paths) != g.PathsPerBank {
				return false
			}
		}
	}
	return true
}

// checkpointer is the publisher's checkpoint subscriber: when due, the
// elected worker assembles the consistent prefix into a reusable
// BuildCheckpoint (the prefix slices alias the live arena) and calls
// the Sink synchronously, so checkpoints track actual progress instead
// of wall-clock ticks that a busy CPU might never schedule.
type checkpointer struct {
	interval int64 // nanoseconds between checkpoint attempts
	last     int   // prefix of the last checkpoint the Sink accepted
	sink     func(*BuildCheckpoint) error
	buf      BuildCheckpoint
	reg, hor []Chip
}

// publish hands the prefix [0, p) to the Sink. A Sink error leaves last
// unchanged, so the next attempt retries from the same frontier.
func (c *checkpointer) publish(p int) {
	c.buf.Done = p
	c.buf.Regular = c.reg[:p]
	if c.buf.Pair {
		c.buf.Horizontal = c.hor[:p]
	}
	if err := c.sink(&c.buf); err != nil {
		obs.C("core_checkpoint_sink_errors_total").Inc()
		return
	}
	c.last = p
	obs.C("core_checkpoints_total").Inc()
}
