package segment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fill adds n entries to w under keys key-<i>.
func fill(t testing.TB, w *Writer, n int) {
	t.Helper()
	w.SetCommon([]byte("common-blob"))
	for i := 0; i < n; i++ {
		if err := w.Add(fmt.Sprintf("key-%05d.example", i), bytes.Repeat([]byte{byte(i)}, 1+i%9)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriterResetAndSinks: a writer Reset from segment to segment renders
// each exactly as a fresh writer does, AppendTo appends to what dst holds,
// Size is the rendered length, and Seal writes the same bytes to disk.
func TestWriterResetAndSinks(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var reused Writer
	for shard, n := range []int{333, 17, 0, 1000, 5} {
		fresh := NewWriter(shard, 9)
		fill(t, fresh, n)
		want, err := fresh.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		reused.Reset(shard, 9)
		reused.Grow(64)
		fill(t, &reused, n)
		if size, err := reused.Size(); err != nil || size != len(want) {
			t.Fatalf("shard %d: Size = %d, %v; want %d", shard, size, err, len(want))
		}
		got, err := reused.AppendTo([]byte("prefix"))
		if err != nil || string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
			t.Fatalf("shard %d: a reused writer's AppendTo differs from a fresh writer's (%v)", shard, err)
		}
		info, err := st.Seal(&reused)
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := os.ReadFile(filepath.Join(st.Dir(), info.File))
		if err != nil || !bytes.Equal(sealed, want) || info.Bytes != int64(len(want)) {
			t.Fatalf("shard %d: sealed file (%d bytes, info %d, %v) differs from AppendTo's %d", shard, len(sealed), info.Bytes, err, len(want))
		}
	}
}

// TestWriteFrameMatchesFrame: a frame written as parts is the Frame of
// their concatenation, byte for byte.
func TestWriteFrameMatchesFrame(t *testing.T) {
	dir := t.TempDir()
	parts := [][]byte{[]byte("head"), nil, bytes.Repeat([]byte{7}, 5000), []byte("tail")}
	n, err := WriteFrame(dir, "f.bin", "RDXX", parts...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "f.bin"))
	if err != nil {
		t.Fatal(err)
	}
	want := Frame("RDXX", bytes.Join(parts, nil))
	if !bytes.Equal(got, want) || n != int64(len(want)) {
		t.Fatalf("WriteFrame wrote %d bytes (reported %d), Frame is %d; equal=%v", len(got), n, len(want), bytes.Equal(got, want))
	}
	if payload, err := Unframe("RDXX", got); err != nil || !bytes.Equal(payload, bytes.Join(parts, nil)) {
		t.Fatalf("Unframe: %v", err)
	}
}

// TestWalkKeysDoNotAllocate: Walk hands keys over as the segment's own
// bytes, so a walk that compares each key with a roster allocates the same
// whether the segment holds 16 entries or 1024.
func TestWalkKeysDoNotAllocate(t *testing.T) {
	allocs := func(n int) float64 {
		w := NewWriter(0, 1)
		fill(t, w, n)
		data, err := w.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Open(data)
		if err != nil {
			t.Fatal(err)
		}
		roster := make([]string, n)
		for i := range roster {
			roster[i] = fmt.Sprintf("key-%05d.example", i)
		}
		return testing.AllocsPerRun(20, func() {
			i := 0
			if err := r.Walk(func(key, _ []byte) error {
				if string(key) != roster[i] {
					return fmt.Errorf("key %q, roster %q", key, roster[i])
				}
				i++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(16), allocs(1024); large != small {
		t.Fatalf("Walk allocated %v times over 16 entries and %v over 1024", small, large)
	}
}
