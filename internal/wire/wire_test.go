package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.Byte(7)
	w.Uvarint(1 << 40)
	w.Int(-3)
	w.Bool(true)
	w.String("example.com")
	w.Blob([]byte{1, 2, 3})
	w.Uvarint(2) // a count of two elements
	w.Bool(false)
	w.Bool(false)

	r := NewReader(w.Bytes())
	if b, u, i, ok, s := r.Byte(), r.Uvarint(), r.Int(), r.Bool(), r.String(); b != 7 || u != 1<<40 || i != -3 || !ok || s != "example.com" {
		t.Fatalf("decoded %d %d %d %v %q", b, u, i, ok, s)
	}
	if blob := r.Blob(); !bytes.Equal(blob, []byte{1, 2, 3}) {
		t.Fatalf("blob %v", blob)
	}
	if n := r.Count(); n != 2 || r.Bool() || r.Bool() {
		t.Fatalf("count %d", n)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// Every refusal is ErrMalformed, the first one sticks, and reads after it
// return zero values.
func TestRefusals(t *testing.T) {
	var big Writer
	big.Uvarint(MaxBlob + 1)
	blob := append(big.Bytes(), make([]byte, MaxBlob+1)...)
	for name, read := range map[string]func(r *Reader){
		"truncated uvarint": func(r *Reader) { r.Uvarint() },
		"bool of two":       func(r *Reader) { r.Bool() },
		"count past input":  func(r *Reader) { r.Count() },
		"blob past MaxBlob": func(r *Reader) { r.Blob() },
		"trailing bytes":    func(r *Reader) { r.Byte() },
		"refused by caller": func(r *Reader) { r.Fail("range") },
	} {
		data := map[string][]byte{
			"truncated uvarint": {0x80},
			"bool of two":       {2},
			"count past input":  {5, 0},
			"blob past MaxBlob": blob,
			"trailing bytes":    {1, 2},
			"refused by caller": {},
		}[name]
		r := NewReader(data)
		read(r)
		err := r.Finish()
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: %v, want ErrMalformed", name, err)
		}
		if r.Err() != nil && (r.Uvarint() != 0 || r.Section() != nil || r.Finish() != err) {
			t.Fatalf("%s: reads after the refusal are not inert", name)
		}
	}
	// Section is bounded by the input only: the same prefix Blob refuses.
	if r := NewReader(blob); len(r.Section()) != MaxBlob+1 || r.Finish() != nil {
		t.Fatal("Section refused a region past MaxBlob")
	}
}

func TestChecksumIsCastagnoli(t *testing.T) {
	data := []byte("RDSG")
	if Checksum(data) != crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)) {
		t.Fatal("Checksum is not CRC-32C")
	}
}

// TestUpdateChecksum: folding UpdateChecksum over the parts of a payload
// gives the payload's Checksum, however it is cut.
func TestUpdateChecksum(t *testing.T) {
	payload := []byte("the checksum of a frame written as several parts")
	for _, cut := range [][]int{{0}, {5}, {5, 5, 20}, {len(payload)}} {
		crc, prev := uint32(0), 0
		for _, at := range append(cut, len(payload)) {
			crc = UpdateChecksum(crc, payload[prev:at])
			prev = at
		}
		if crc != Checksum(payload) {
			t.Fatalf("cut at %v: folded %08x, want %08x", cut, crc, Checksum(payload))
		}
	}
}

// FuzzVarintsMatchBinary reads arbitrary bytes as consecutive varints
// through a Reader and through encoding/binary, which must agree on every
// value, on where the input stops decoding, and on the offset of the
// refusal there. The seeds are the edges binary.Uvarint draws: the
// extremes, truncation, ten bytes with the tenth past 1 (overflow) or at 1,
// and an eleventh byte.
func FuzzVarintsMatchBinary(f *testing.F) {
	var w Writer
	w.Uvarint(1<<64 - 1)
	w.Int(-1 << 63)
	w.Uvarint(0)
	for _, data := range [][]byte{
		w.Bytes(),
		w.Bytes()[:len(w.Bytes())-2],
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02},
		append(bytes.Repeat([]byte{0xff}, 9), 1, 1),
		append(bytes.Repeat([]byte{0x80}, 10), 0),
	} {
		f.Add(false, data)
		f.Add(true, data)
	}
	f.Fuzz(func(t *testing.T, signed bool, data []byte) {
		r := NewReader(data)
		off := 0
		for off < len(data) {
			var want, got int64
			var n int
			if signed {
				want, n = binary.Varint(data[off:])
				got = r.Int()
			} else {
				var u uint64
				u, n = binary.Uvarint(data[off:])
				want, got = int64(u), int64(r.Uvarint())
			}
			if n <= 0 {
				err := r.Err()
				if err == nil || !strings.HasSuffix(err.Error(), fmt.Sprintf(" at offset %d", off)) {
					t.Fatalf("binary refuses at %d, the Reader: %v", off, err)
				}
				return
			}
			off += n
			if got != want || r.Offset() != off || r.Err() != nil {
				t.Fatalf("binary read %d to %d, the Reader %d to %d (%v)", want, off, got, r.Offset(), r.Err())
			}
		}
	})
}
