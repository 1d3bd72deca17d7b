package wal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"retrodns/internal/scanner"
	"retrodns/internal/segment"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
	"retrodns/internal/wire"
)

// FuzzWALReplay enforces the recovery contract over arbitrary bytes:
// Replay returns nil or a typed sentinel, never panics, and the reported
// offset is a valid boundary the store could truncate to.
func FuzzWALReplay(f *testing.F) {
	g := synth.New(synth.Config{Domains: 6, Seed: 3, Scans: 2})
	dates := g.ScanDates()
	valid := appendFrame(nil, 2, dates[0], g.Scan(dates[0]))
	two := append(append([]byte(nil), valid...), appendFrame(nil, 3, dates[1], g.Scan(dates[1]))...)

	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(two)
	f.Add(valid[:len(valid)-5])                  // torn tail
	f.Add(append([]byte("RDWL junk"), valid...)) // bad magic region
	garbled := append([]byte(nil), two...)
	garbled[len(garbled)-3] ^= 0xff
	f.Add(garbled) // CRC mismatch in last frame
	short := append([]byte(nil), valid[:frameHeader]...)
	f.Add(short)                                        // header only
	f.Add(appendFrame(nil, 9, simtime.StudyStart, nil)) // empty batch
	// A store's log, whose second and third frames continue the first's
	// certificate dictionary; that log twice over (the duplicate fault);
	// and a continuing frame alone, with no dictionary to continue.
	log := storeLog(f, synth.New(synth.Config{Domains: 6, Seed: 3, Scans: 3}))
	f.Add(log)
	f.Add(append(slices.Clone(log), log...))
	f.Add(splitFrames(f, log)[1])

	f.Fuzz(func(t *testing.T, data []byte) {
		frames := 0
		off, err := Replay(data, func(gen uint64, date simtime.Date, records []*scanner.Record) error {
			frames++
			return nil
		})
		if off < 0 || off > len(data) {
			t.Fatalf("offset %d out of range [0,%d]", off, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrTornTail) && !errors.Is(err, ErrCRCMismatch) && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped replay error: %v", err)
			}
			return
		}
		if off != len(data) {
			t.Fatalf("nil error but stopped at %d of %d", off, len(data))
		}
		// A clean replay must re-replay identically from the same bytes.
		again := 0
		off2, err2 := Replay(data, func(uint64, simtime.Date, []*scanner.Record) error {
			again++
			return nil
		})
		if err2 != nil || off2 != off || again != frames {
			t.Fatalf("replay not deterministic: %d/%v vs %d/%v, %d vs %d frames",
				off, err, off2, err2, frames, again)
		}
	})
}

// FuzzSnapshotFile holds snapshot recovery to its refusal contract:
// arbitrary bytes read as a snapshot file either load or come back as
// ErrBadSnapshot, never a panic. Each input is tried as the whole file and,
// so that mutations reach the decoders behind the checksum, as the payload
// of a well-framed one.
func FuzzSnapshotFile(f *testing.F) {
	g := synth.New(synth.Config{Domains: 6, Seed: 3, Scans: 2})
	dir := f.TempDir()
	s, _, err := Open(Options{Dir: dir, Shards: 2, SnapshotEvery: 1000})
	if err != nil {
		f.Fatal(err)
	}
	for _, date := range g.ScanDates() {
		if err := s.Append(date, g.Scan(date)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		f.Fatal(err)
	}
	s.Close()
	file, err := os.ReadFile(filepath.Join(dir, snapName(s.Generation())))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := segment.Unframe(snapMagic, file)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	f.Add(payload)
	f.Add(append(slices.Clone(payload), 0)) // trailing bytes after the sections
	f.Add(file[:len(file)/2])
	f.Add([]byte(nil))
	// The file with a byte flipped inside shard 0's inline segment image,
	// under a valid file checksum, and a file in the layout before shards
	// were segments.
	head, shards := datasetShards(f, datasetSection(f, file))
	shards[0] = withImage(f, shards[0], func(img []byte) []byte {
		img[len(img)/2] ^= 0x41
		return img
	})
	var damaged wire.Writer
	damaged.Blob(joinDataset(head, shards))
	damaged.Blob(nil)
	f.Add(segment.Frame(snapMagic, damaged.Bytes()))
	old, err := os.ReadFile(filepath.Join("testdata", "rcc1", "snap-00000003.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)

	path := filepath.Join(f.TempDir(), snapName(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, segment.Frame(snapMagic, data)} {
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			ds, _, err := loadSnapshotFile(path, nil)
			if err != nil && !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("untyped refusal: %v", err)
			}
			if err == nil && ds == nil {
				t.Fatal("nil dataset without an error")
			}
		}
	})
}
