package wire

import (
	"bytes"
	"errors"
	"hash/crc32"
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

func TestRewind(t *testing.T) {
	var w Writer
	w.Uvarint(300)
	w.Uvarint(5)
	r := NewReader(w.Bytes())
	start := r.Offset()
	if r.Uvarint() != 300 {
		t.Fatal("first read")
	}
	r.Rewind(start)
	if r.Uvarint() != 300 || r.Uvarint() != 5 {
		t.Fatal("re-read after Rewind")
	}
	r.Rewind(r.Offset() + 1) // forward is not a rewind
	if r.Offset() != len(w.Bytes()) {
		t.Fatal("Rewind moved the cursor forward")
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
