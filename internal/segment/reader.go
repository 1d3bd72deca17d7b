package segment

import (
	"fmt"
	"os"
	"sort"

	"retrodns/internal/wire"
)

// Mode selects how OpenFile serves reads.
type Mode int

const (
	// ModeAuto memory-maps the segment where the platform supports it and
	// falls back to streaming ReadAt otherwise.
	ModeAuto Mode = iota
	// ModeStream forces the plain ReadAt path: only the header, common
	// blob, and anchor index stay resident; entry reads hit the file.
	ModeStream
)

// String renders the mode for flags and logs.
func (m Mode) String() string {
	if m == ModeStream {
		return "stream"
	}
	return "auto"
}

// ParseMode parses a -spill-read-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "auto":
		return ModeAuto, nil
	case "stream":
		return ModeStream, nil
	}
	return ModeAuto, fmt.Errorf("segment: unknown read mode %q (auto|stream)", s)
}

// Reader serves point lookups and full walks over one verified segment.
// The whole payload is CRC-checked at open; the file is immutable, so no
// later read re-verifies. Safe for concurrent use except Close.
type Reader struct {
	shard   int
	gen     uint64
	count   int
	common  []byte
	anchors []anchor

	// entries holds the entries region when it is resident (in-memory
	// open, or aliasing the mmap). nil in stream mode.
	entries []byte
	// Stream mode: reads go through f at entriesOff, the region's offset
	// in the file.
	f          *os.File
	entriesOff int64
	entriesLen int
	// mm is the mapped region to release on Close (mmap mode only).
	mm     []byte
	closed bool
}

// badSegment wraps a codec refusal in ErrBadSegment.
func badSegment(err error) error { return fmt.Errorf("%w: %w", ErrBadSegment, err) }

// newReader is the one Reader constructor: it verifies the framed segment
// image data and indexes it. Entry reads alias data — an in-memory image,
// or the mapping mm, which Close releases along with f. With f set and no
// mapping the reader streams instead: it keeps its own copy of the common
// blob and reads entry windows from f, so data can go. A refused image
// releases mm and f.
func newReader(data []byte, f *os.File, mm []byte) (*Reader, error) {
	r := &Reader{f: f, mm: mm}
	if err := r.parse(data); err != nil {
		if mm != nil {
			munmap(mm)
		}
		if f != nil {
			f.Close()
		}
		return nil, err
	}
	if f != nil && mm == nil {
		r.common = append([]byte(nil), r.common...)
		r.entries = nil
	}
	return r, nil
}

// parse verifies a framed segment image and reads its header, common blob
// and anchor index around the entries region into r. Every count is bounded
// against the remaining input before it gates an allocation, so arbitrary
// bytes cannot balloon memory; every structural refusal is ErrBadSegment.
func (r *Reader) parse(data []byte) error {
	payload, err := Unframe(fileMagic, data)
	if err != nil {
		return err
	}
	p := wire.NewReader(payload)
	if ver := p.Byte(); p.Err() == nil && ver != formatVersion {
		return fmt.Errorf("%w: version %d", ErrBadSegment, ver)
	}
	if shard := p.Uvarint(); shard > 1<<20 {
		p.Fail("shard range")
	} else {
		r.shard = int(shard)
	}
	r.gen = p.Uvarint()
	r.common = p.Section()
	// Every entry costs at least two bytes (two length prefixes).
	r.count = p.Count()
	r.entries = p.Section()
	r.entriesLen = len(r.entries)
	r.entriesOff = int64(len(fileMagic) + p.Offset() - r.entriesLen)
	if p.Err() == nil && r.count > r.entriesLen {
		p.Fail("entry count vs region")
	}
	nanchors := p.Count()
	if p.Err() == nil && nanchors != (r.count+anchorEvery-1)/anchorEvery {
		p.Fail("anchor count mismatch")
	}
	if p.Err() == nil && nanchors > 0 {
		r.anchors = make([]anchor, 0, nanchors)
	}
	var prev anchor
	for i := 0; i < nanchors && p.Err() == nil; i++ {
		key := string(p.Section())
		off := p.Uvarint()
		switch {
		case p.Err() != nil:
		case off > uint64(r.entriesLen) || (i == 0 && off != 0):
			p.Fail("anchor offset range")
		case i > 0 && (key <= prev.key || off <= prev.off):
			p.Fail("anchor order")
		default:
			prev = anchor{key: key, off: off}
			r.anchors = append(r.anchors, prev)
		}
	}
	if err := p.Finish(); err != nil {
		return badSegment(err)
	}
	if err := r.checkEntries(); err != nil {
		return badSegment(err)
	}
	return nil
}

// checkEntries holds the entries region to what Get's search over the
// anchors assumes: count entries in strictly increasing key order, each
// anchor at the entry it names.
func (r *Reader) checkEntries() error {
	e := wire.NewReader(r.entries)
	var prev []byte
	n := 0
	for ; e.Len() > 0; n++ {
		off := e.Offset()
		key := e.Section()
		e.Section()
		switch a := n / anchorEvery; {
		case e.Err() != nil:
		case n >= r.count:
			e.Fail("entry count")
		case n > 0 && string(key) <= string(prev):
			e.Fail("entry order")
		case n%anchorEvery == 0 && (r.anchors[a].off != uint64(off) || r.anchors[a].key != string(key)):
			e.Fail("anchor placement")
		}
		prev = key
	}
	if n != r.count {
		e.Fail("entry count")
	}
	return e.Finish()
}

// Open verifies and indexes an in-memory segment image (a full framed
// file). The Reader aliases data; keep it alive for the Reader's life.
func Open(data []byte) (*Reader, error) { return newReader(data, nil, nil) }

// OpenFile verifies and indexes a segment file. ModeAuto prefers mmap
// (entry reads are zero-copy and the pages stay file-backed, so the OS
// can evict them under pressure); ModeStream retains only the header,
// common blob, and anchors, reading entry windows with ReadAt.
func OpenFile(path string, mode Mode) (*Reader, error) {
	if mode == ModeAuto {
		// Mapped, or a real failure (unreadable file, bad CRC, bad
		// structure) that would fail the streaming path identically.
		if r, err := openMmap(path); err != errMmapUnsupported {
			return r, err
		}
	}
	// Stream open: one full pass verifies the CRC and parses the header;
	// the entries region is then dropped and re-read on demand.
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return newReader(data, f, nil)
}

// Shard and Gen return the identity sealed into the segment.
func (r *Reader) Shard() int  { return r.shard }
func (r *Reader) Gen() uint64 { return r.gen }

// Count returns the number of entries.
func (r *Reader) Count() int { return r.count }

// Common returns the caller's opaque shared blob; treat it as read-only
// (it may alias the mapped file).
func (r *Reader) Common() []byte { return r.common }

// window returns the entry-region byte range covering the anchor block
// that could hold key, or ok=false when the key sorts before every entry.
func (r *Reader) window(key string) (lo, hi int, ok bool) {
	if len(r.anchors) == 0 || key < r.anchors[0].key {
		return 0, 0, false
	}
	// First anchor strictly greater than key; the block before it owns it.
	i := sort.Search(len(r.anchors), func(i int) bool { return r.anchors[i].key > key })
	lo = int(r.anchors[i-1].off)
	hi = r.entriesLen
	if i < len(r.anchors) {
		hi = int(r.anchors[i].off)
	}
	return lo, hi, true
}

// block materializes one entry window: a subslice in memory/mmap mode,
// one ReadAt in stream mode.
func (r *Reader) block(lo, hi int) ([]byte, error) {
	if r.closed {
		return nil, ErrClosed
	}
	if r.entries != nil {
		return r.entries[lo:hi], nil
	}
	buf := make([]byte, hi-lo)
	if _, err := r.f.ReadAt(buf, r.entriesOff+int64(lo)); err != nil {
		return nil, fmt.Errorf("%w: read entries [%d,%d): %v", ErrBadSegment, lo, hi, err)
	}
	return buf, nil
}

// Get returns the value stored under key. ok=false means the key is not
// in the segment; a structurally damaged entry is an error. The returned
// slice may alias the mapped file — decode it before Close.
func (r *Reader) Get(key string) ([]byte, bool, error) {
	lo, hi, ok := r.window(key)
	if !ok {
		return nil, false, nil
	}
	block, err := r.block(lo, hi)
	if err != nil {
		return nil, false, err
	}
	br := wire.NewReader(block)
	for br.Len() > 0 {
		k := br.Section()
		v := br.Section()
		if br.Err() != nil {
			return nil, false, badSegment(br.Err())
		}
		switch {
		case string(k) == key:
			return v, true, nil
		case string(k) > key:
			return nil, false, nil
		}
	}
	return nil, false, nil
}

// Walk visits every entry in key order. Key and value alias the segment
// (the mapping, the in-memory image, or one read of the region) and are
// valid only during the call: a caller that keeps a key copies it, so a
// walk that only compares keys allocates nothing per entry. In stream mode
// the whole entries region is read once (the caller is materializing the
// shard anyway).
func (r *Reader) Walk(fn func(key, value []byte) error) error {
	block, err := r.block(0, r.entriesLen)
	if err != nil {
		return err
	}
	br := wire.NewReader(block)
	seen := 0
	for br.Len() > 0 {
		k := br.Section()
		v := br.Section()
		if br.Err() != nil {
			return badSegment(br.Err())
		}
		seen++
		if seen > r.count {
			return fmt.Errorf("%w: more entries than declared (%d)", ErrBadSegment, r.count)
		}
		if err := fn(k, v); err != nil {
			return err
		}
	}
	if seen != r.count {
		return fmt.Errorf("%w: %d entries, declared %d", ErrBadSegment, seen, r.count)
	}
	return nil
}

// Close releases the mapping and file handle; every read after Close
// returns ErrClosed. Closing an Open-from-bytes reader just latches the
// refusal (it holds no resources).
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var errs []error
	if r.mm != nil {
		if err := munmap(r.mm); err != nil {
			errs = append(errs, err)
		}
		r.mm, r.entries = nil, nil
	}
	if r.f != nil {
		if err := r.f.Close(); err != nil {
			errs = append(errs, err)
		}
		r.f = nil
	}
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}
