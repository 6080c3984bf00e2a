package core

import (
	"bytes"
	"context"
	"testing"

	"yieldcache/internal/circuit"
	"yieldcache/internal/sram"
)

// fuzzN and fuzzSeed size the build FuzzDecodeBuildCheckpoint resumes:
// small enough that each input costs well under a millisecond.
const fuzzN, fuzzSeed = 2*sram.BatchWidth + 3, 7

// malformedCheckpoint is CRC-valid and self-consistent in its counts,
// but its chips have none of the ways its geometry promises; resuming
// from it used to index past the empty slices.
func malformedCheckpoint(n int, seed int64) *BuildCheckpoint {
	return &BuildCheckpoint{
		Seed: seed, N: n, Done: 2, Pair: true,
		Tech: circuit.PTM45(), Geom: sram.Paper16KB(),
		Regular: make([]Chip, 2), Horizontal: make([]Chip, 2),
	}
}

func encoded(tb testing.TB, c *BuildCheckpoint) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeBuildCheckpoint decodes arbitrary bytes as a checkpoint and
// resumes a small build from anything the decoder accepts. Neither step
// may panic: bad input must come back as an error.
func FuzzDecodeBuildCheckpoint(f *testing.F) {
	cfg := PopulationConfig{N: fuzzN, Seed: fuzzSeed, Workers: 1}
	reg, hor := buildPair(f, cfg)
	for _, done := range []int{0, sram.BatchWidth, fuzzN} {
		f.Add(encoded(f, &BuildCheckpoint{
			Seed: fuzzSeed, N: fuzzN, Done: done, Pair: true,
			Tech: reg.Model.Tech, Geom: reg.Model.Geom,
			Regular: reg.Chips[:done], Horizontal: hor.Chips[:done],
		}))
	}
	f.Add(encoded(f, malformedCheckpoint(fuzzN, fuzzSeed)))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeBuildCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		resumed := cfg
		resumed.Checkpoint = &CheckpointConfig{Resume: ck}
		res, err := Build(context.Background(), resumed)
		if err == nil && (len(res.Regular.Chips) != fuzzN || len(res.Horizontal.Chips) != fuzzN) {
			t.Fatalf("resumed build returned %d/%d chips, want %d",
				len(res.Regular.Chips), len(res.Horizontal.Chips), fuzzN)
		}
	})
}

// FuzzReadPopulation reads arbitrary bytes as a population file. It
// may not panic, and any population it accepts must have chips of its
// model's geometry, ready for analysis.
func FuzzReadPopulation(f *testing.F) {
	res := mustBuild(f, PopulationConfig{N: fuzzN, Seed: fuzzSeed, Workers: 1})
	for _, pop := range []*Population{res.Regular, res.Horizontal} {
		var buf bytes.Buffer
		if err := pop.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pop, err := ReadPopulation(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(pop.Chips) == 0 {
			t.Fatal("accepted a population with no chips")
		}
		for i := range pop.Chips {
			if !shaped(&pop.Chips[i].Meas, pop.Model.Geom) {
				t.Fatalf("accepted chip %d without geometry %+v", i, pop.Model.Geom)
			}
		}
		pop.Scatter(DeriveLimits(pop, Nominal()))
	})
}
