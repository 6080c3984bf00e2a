package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to OpenFile as the WAL of a fresh
// data directory. Opening must never panic, and every failure must be a
// *Error. A successful open leaves a WAL of whole, valid frames, no
// more of them than the input's valid prefix holds, and a second open
// recovers the same state without rewriting or truncating the WAL
// again. The seed corpus — real frames of every record kind, a torn
// tail and a bad-CRC frame — runs under plain go test; run
//
//	go test -run '^$' -fuzz '^FuzzWALReplay$' -fuzztime 10s ./internal/store/
//
// to explore beyond it.
func FuzzWALReplay(f *testing.F) {
	var all []byte
	for _, rec := range []walRecord{
		{T: "job", Job: &JobRecord{ID: "j000001", Seq: 1, Key: "k1", State: "running", Seed: 2006,
			Chips: 2000, ConsName: "nominal", Schemes: []string{"YAPD"}, CreatedUnixMS: 1}},
		{T: "job", Job: &JobRecord{ID: "j000002", Seq: 2, Key: "k2", State: "queued", Kind: "sweep",
			Spec: []byte(`{"chips":20}`)}},
		{T: "res", Key: "k1"},
		{T: "resdel", Key: "k1"},
		{T: "idem", Idem: &IdemRecord{Key: "i1", BodyHash: "ab", StudyKey: "k1", JobID: "j000001"}},
		{T: "idemdel", Key: "i1"},
		{T: "ckpt", Key: "j000001", Chips: 512},
		{T: "ckptdel", Key: "j000001"},
	} {
		frame, err := encodeFrame(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		all = append(all, frame...)
	}
	f.Add(all)
	f.Add(append(bytes.Clone(all), all[:11]...)) // torn tail
	badCRC := bytes.Clone(all)
	badCRC[4] ^= 0xff
	f.Add(badCRC)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walName)
		if err := os.WriteFile(path, wal, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (*Recovered, []byte, bool) {
			s, err := OpenFile(dir)
			if err != nil {
				if _, ok := err.(*Error); !ok {
					t.Fatalf("OpenFile error %T is not a *store.Error: %v", err, err)
				}
				return nil, nil, false
			}
			defer s.Close()
			rec, err := s.Recover()
			if err != nil {
				t.Fatalf("Recover after a successful open: %v", err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return rec, after, true
		}
		rec, after, ok := open()
		if !ok {
			return
		}
		inFrames, _ := walFrames(wal)
		outFrames, end := walFrames(after)
		if end != len(after) {
			t.Fatalf("reopened WAL ends mid-frame: %d valid bytes of %d", end, len(after))
		}
		if outFrames > inFrames {
			t.Fatalf("WAL grew from %d valid frames to %d", inFrames, outFrames)
		}
		rec2, again, ok := open()
		if !ok {
			t.Fatal("second open of a recovered WAL failed")
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("second open recovered different state:\nfirst  %+v\nsecond %+v", rec, rec2)
		}
		if !bytes.Equal(after, again) {
			t.Fatalf("second open rewrote the WAL: %d bytes became %d", len(after), len(again))
		}
	})
}

// walFrames counts the whole frames with a valid CRC at the front of
// data and returns the offset just past the last of them.
func walFrames(data []byte) (frames, end int) {
	for end+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[end:]))
		if n == 0 || end+8+n > len(data) {
			break
		}
		payload := data[end+8 : end+8+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[end+4:]) {
			break
		}
		frames++
		end += 8 + n
	}
	return frames, end
}
