package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"yieldcache/internal/circuit"
	"yieldcache/internal/sram"
)

// The persisted-file framing shared by population snapshots and build
// checkpoints: a 5-byte magic identifying the kind, one format-version
// byte, the payload length and its CRC32-C, then the gob payload. The
// header lets a truncated, corrupt or foreign file fail with a
// descriptive error before gob ever sees it.
const (
	populationMagic = "YCPOP"
	checkpointMagic = "YCCKP"
	persistVersion  = 2
)

var persistCRC = crc32.MakeTable(crc32.Castagnoli)

// writeFramed writes one framed payload: magic, version, uint32 length,
// uint32 CRC32-C, payload (little-endian).
func writeFramed(w io.Writer, magic string, payload []byte) error {
	var hdr [14]byte
	copy(hdr[:5], magic)
	hdr[5] = persistVersion
	binary.LittleEndian.PutUint32(hdr[6:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[10:], crc32.Checksum(payload, persistCRC))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("core: writing %s header: %w", magic, err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("core: writing %s payload: %w", magic, err)
	}
	return nil
}

// readFramed reads and verifies one framed payload written by
// writeFramed, with errors that name what went wrong: wrong magic,
// unsupported version, truncation, or checksum mismatch.
func readFramed(r io.Reader, magic, kind string) ([]byte, error) {
	var hdr [14]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: %s file truncated in header: %w", kind, err)
	}
	if string(hdr[:5]) != magic {
		return nil, fmt.Errorf("core: not a %s file (magic %q, want %q)", kind, hdr[:5], magic)
	}
	if hdr[5] != persistVersion {
		return nil, fmt.Errorf("core: %s file format version %d, want %d", kind, hdr[5], persistVersion)
	}
	n := binary.LittleEndian.Uint32(hdr[6:])
	sum := binary.LittleEndian.Uint32(hdr[10:])
	// The length is untrusted: read through a bounded reader so a short
	// file costs what it holds, not what its header claims.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(payload) != int(n) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s file truncated: %d-byte payload unreadable: %w", kind, n, err)
	}
	if got := crc32.Checksum(payload, persistCRC); got != sum {
		return nil, fmt.Errorf("core: %s file corrupt: payload checksum %08x, want %08x", kind, got, sum)
	}
	return payload, nil
}

// populationFile is the on-disk form of a population: everything needed
// to reload it and keep analysing without re-running the Monte Carlo.
type populationFile struct {
	Seed  int64
	HYAPD bool
	Tech  circuit.Tech
	Geom  sram.Geometry
	Chips []Chip
}

// Save serialises the population — a magic/version/checksum header
// followed by the gob payload — so that expensive Monte Carlo runs can
// be cached on disk and shared between tools. A snapshot truncated or
// corrupted after the fact is detected on read by its checksum.
func (p *Population) Save(w io.Writer) error {
	f := populationFile{
		Seed:  p.Seed,
		HYAPD: p.Model.HYAPD,
		Tech:  p.Model.Tech,
		Geom:  p.Model.Geom,
		Chips: p.Chips,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return fmt.Errorf("core: encoding population: %w", err)
	}
	return writeFramed(w, populationMagic, buf.Bytes())
}

// ReadPopulation reloads a population written by Save, verifying the
// header and payload checksum before decoding.
func ReadPopulation(r io.Reader) (*Population, error) {
	payload, err := readFramed(r, populationMagic, "population")
	if err != nil {
		return nil, err
	}
	var f populationFile
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decoding population: %w", err)
	}
	if len(f.Chips) == 0 {
		return nil, fmt.Errorf("core: population file holds no chips")
	}
	for i := range f.Chips {
		if !shaped(&f.Chips[i].Meas, f.Geom) {
			return nil, fmt.Errorf("core: population file inconsistent: chip %d does not have geometry %+v", i, f.Geom)
		}
	}
	model := &sram.Model{Tech: f.Tech, Geom: f.Geom, HYAPD: f.HYAPD}
	return &Population{Chips: f.Chips, Model: model, Seed: f.Seed}, nil
}

// BuildCheckpoint is a consistent prefix of an interrupted pair build:
// every chip below Done measured for both organisations, plus the
// parameters needed to validate that a resume really continues the
// same build. Chip i is a pure function of (Seed, i) — the O(1)
// seed-jump — so Done alone locates the resume point; no sampler state
// is saved.
type BuildCheckpoint struct {
	// Seed and N identify the build; Pair records that both cache
	// organisations were measured (the only checkpointed mode).
	Seed int64
	N    int
	Done int
	Pair bool
	// Tech and Geom guard against resuming under a different model.
	Tech circuit.Tech
	Geom sram.Geometry
	// Regular and Horizontal hold the measured prefix [0, Done).
	Regular    []Chip
	Horizontal []Chip
}

// Encode serialises the checkpoint with the same framed
// magic/version/checksum layout as population snapshots.
func (c *BuildCheckpoint) Encode(w io.Writer) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	return writeFramed(w, checkpointMagic, buf.Bytes())
}

// DecodeBuildCheckpoint reads a checkpoint written by Encode, verifying
// the header and payload checksum before decoding.
func DecodeBuildCheckpoint(r io.Reader) (*BuildCheckpoint, error) {
	payload, err := readFramed(r, checkpointMagic, "checkpoint")
	if err != nil {
		return nil, err
	}
	var c BuildCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&c); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
