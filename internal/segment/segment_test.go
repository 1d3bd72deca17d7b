package segment

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildSeg seals n synthetic entries into framed file bytes.
func buildSeg(t *testing.T, shard int, gen uint64, n int) ([]byte, map[string][]byte) {
	t.Helper()
	w := NewWriter(shard, gen)
	w.SetCommon([]byte("common-blob"))
	want := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("domain-%05d.example", i)
		v := bytes.Repeat([]byte{byte(i)}, 1+i%7)
		if err := w.Add(k, v); err != nil {
			t.Fatalf("Add(%q): %v", k, err)
		}
		want[k] = v
	}
	data, err := w.AppendTo(nil)
	if err != nil {
		t.Fatalf("AppendTo: %v", err)
	}
	return data, want
}

func checkReader(t *testing.T, r *Reader, want map[string][]byte) {
	t.Helper()
	if r.Count() != len(want) {
		t.Fatalf("Count = %d, want %d", r.Count(), len(want))
	}
	if string(r.Common()) != "common-blob" {
		t.Fatalf("Common = %q", r.Common())
	}
	for k, v := range want {
		got, ok, err := r.Get(k)
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
	for _, miss := range []string{"", "aaa", "domain-00000.examplf", "zzz", "domain-99999.example"} {
		if _, ok, err := r.Get(miss); ok || err != nil {
			t.Fatalf("Get(%q) = %v, %v; want miss", miss, ok, err)
		}
	}
	seen := 0
	prev := ""
	if err := r.Walk(func(key, v []byte) error {
		k := string(key)
		if seen > 0 && k <= prev {
			t.Fatalf("Walk out of order: %q after %q", k, prev)
		}
		if !bytes.Equal(v, want[k]) {
			t.Fatalf("Walk(%q) = %q, want %q", k, v, want[k])
		}
		prev = k
		seen++
		return nil
	}); err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if seen != len(want) {
		t.Fatalf("Walk visited %d, want %d", seen, len(want))
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 333} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			data, want := buildSeg(t, 3, 7, n)
			r, err := Open(data)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if r.Shard() != 3 || r.Gen() != 7 {
				t.Fatalf("identity = (%d,%d)", r.Shard(), r.Gen())
			}
			checkReader(t, r, want)
		})
	}
}

func TestOpenFileModes(t *testing.T) {
	data, want := buildSeg(t, 1, 2, 100)
	dir := t.TempDir()
	path := filepath.Join(dir, SegName(1, 2))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// "mmap" is the mapped path on its own, skipped where the platform has
	// none; "auto" must take it wherever it exists.
	open := map[string]func() (*Reader, error){
		"auto":   func() (*Reader, error) { return OpenFile(path, ModeAuto) },
		"mmap":   func() (*Reader, error) { return openMmap(path) },
		"stream": func() (*Reader, error) { return OpenFile(path, ModeStream) },
	}
	probe, mmapErr := openMmap(path)
	if mmapErr == nil {
		probe.Close()
	}
	for name, open := range open {
		t.Run(name, func(t *testing.T) {
			r, err := open()
			if name == "mmap" && err == errMmapUnsupported {
				t.Skip("no mmap on this platform")
			}
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			defer r.Close()
			if mapped := r.mm != nil; mapped != (name != "stream" && mmapErr == nil) {
				t.Fatalf("%s: mapped = %v", name, mapped)
			}
			checkReader(t, r, want)
			if err := r.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, _, err := r.Get("domain-00000.example"); !errors.Is(err, ErrClosed) {
				t.Fatalf("Get after Close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"": ModeAuto, "auto": ModeAuto, "stream": ModeStream} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"bogus", "mmap"} {
		if _, err := ParseMode(s); err == nil {
			t.Fatalf("ParseMode(%q) accepted", s)
		}
	}
}

func TestUnsortedKeysLatch(t *testing.T) {
	w := NewWriter(0, 1)
	if err := w.Add("b", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Add("a", nil); !errors.Is(err, ErrUnsortedKeys) {
		t.Fatalf("out-of-order Add = %v", err)
	}
	if err := w.Add("z", nil); !errors.Is(err, ErrUnsortedKeys) {
		t.Fatalf("latched Add = %v", err)
	}
	if _, err := w.AppendTo(nil); !errors.Is(err, ErrUnsortedKeys) {
		t.Fatalf("AppendTo after latch = %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	data, _ := buildSeg(t, 0, 1, 50)
	for _, off := range []int{0, len(fileMagic), len(data) / 2, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xff
		if _, err := Open(mut); err == nil {
			t.Fatalf("flip at %d accepted", off)
		} else if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrBadSegment) {
			t.Fatalf("flip at %d: untyped error %v", off, err)
		}
	}
	if _, err := Open(data[:len(data)-3]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated = %v", err)
	}
	if _, err := Open(nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty = %v", err)
	}
}

// TestStoreSealLookupReopen seals two generations of one shard and looks
// both up again, by name, through a second Store over the same directory
// — the directory listing is the only index. A manifest.json left behind
// by an older build (garbage or not) is not a segment and is ignored.
func TestStoreSealLookupReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(2, 5)
	w.SetCommon([]byte("common-blob"))
	for i := 0; i < 40; i++ {
		if err := w.Add(fmt.Sprintf("domain-%05d.example", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	info, err := st.Seal(w)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if info.File != SegName(2, 5) || info.Shard != 2 || info.Gen != 5 || info.Bytes == 0 {
		t.Fatalf("info = %+v", info)
	}

	// A second generation for the same shard lands beside the first.
	w2 := NewWriter(2, 6)
	w2.SetCommon([]byte("common-blob"))
	if err := w2.Add("only.example", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Seal(w2); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen beside a stray manifest.json: %v", err)
	}
	for name, want := range map[string]int{SegName(2, 5): 40, SegName(2, 6): 1} {
		r, err := st2.OpenName(name, ModeAuto)
		if err != nil {
			t.Fatalf("OpenName(%s): %v", name, err)
		}
		if r.Count() != want {
			t.Fatalf("%s reopened Count = %d, want %d", name, r.Count(), want)
		}
		r.Close()
	}
	if _, err := st2.OpenName("manifest.json", ModeAuto); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("OpenName(manifest.json) = %v, want ErrBadSegment", err)
	}
}

func TestStoreRejectsRenamedSegment(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(1, 1)
	if err := w.Add("a.example", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Seal(w); err != nil {
		t.Fatal(err)
	}
	// Copy the shard-1 file under a shard-2 name: the sealed identity no
	// longer matches, so OpenName must refuse.
	data, err := os.ReadFile(filepath.Join(dir, SegName(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, SegName(2, 1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.OpenName(SegName(2, 1), ModeAuto); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("OpenName(cross-copied) = %v, want ErrBadSegment", err)
	}
}

func TestParseSegName(t *testing.T) {
	shard, gen, ok := parseSegName(SegName(7, 42))
	if !ok || shard != 7 || gen != 42 {
		t.Fatalf("round trip = (%d,%d,%v)", shard, gen, ok)
	}
	for _, bad := range []string{"seg-7-42.bin.tmp-1", "seg-x-1.bin", "manifest.json", "seg-1.bin", "seg--1-1.bin"} {
		if _, _, ok := parseSegName(bad); ok {
			t.Fatalf("parseSegName(%q) accepted", bad)
		}
	}
}
