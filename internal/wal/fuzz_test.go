package wal

import (
	"errors"
	"testing"

	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
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
