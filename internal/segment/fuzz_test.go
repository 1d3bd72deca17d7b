package segment

import (
	"errors"
	"fmt"
	"testing"
)

// FuzzSegmentReplay enforces the reader's contract on arbitrary bytes: a
// garbled segment image must yield a typed refusal (ErrBadFrame or
// ErrBadSegment), never a panic or an untyped error, both on the raw
// bytes and after re-framing them under a valid CRC (which forces the
// structural parser, not just the checksum, to do the refusing). When an
// image does parse, every entry must be walkable and Get-consistent.
func FuzzSegmentReplay(f *testing.F) {
	// Seed corpus: a healthy segment, a sliced one, a payload with a valid
	// CRC but broken structure, and degenerate frames.
	w := NewWriter(3, 9)
	w.SetCommon([]byte("certs"))
	for i := 0; i < 40; i++ {
		if err := w.Add(fmt.Sprintf("d%04d.example", i), []byte{byte(i), byte(i >> 1)}); err != nil {
			f.Fatal(err)
		}
	}
	healthy, err := w.AppendTo(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(healthy)
	f.Add(healthy[:len(healthy)/2])
	f.Add(Frame(fileMagic, []byte{formatVersion, 0xff, 0xff}))
	f.Add(Frame(fileMagic, nil))
	f.Add([]byte(fileMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(r *Reader, err error) {
			if err != nil {
				if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrBadSegment) {
					t.Fatalf("untyped open error: %v", err)
				}
				return
			}
			walkErr := r.Walk(func(k, v []byte) error {
				got, ok, err := r.Get(string(k))
				if err != nil {
					return err
				}
				if !ok || string(got) != string(v) {
					return fmt.Errorf("Get(%q) disagrees with Walk", k)
				}
				return nil
			})
			if walkErr != nil && !errors.Is(walkErr, ErrBadSegment) {
				t.Fatalf("untyped walk error: %v", walkErr)
			}
		}
		// Raw bytes: the CRC rejects almost everything.
		check(Open(data))
		// Re-framed under a valid CRC: the structural parser is on its own.
		check(Open(Frame(fileMagic, data)))
	})
}
