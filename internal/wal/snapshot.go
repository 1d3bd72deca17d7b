package wal

// Snapshot files. A snapshot is one file:
//
//	"RDSS" ++ payload ++ CRC-32C(payload)
//	payload = uvarint(len(dataset)) ++ AppendSnapshot bytes
//	       ++ uvarint(len(cache))   ++ EncodeState bytes (len 0 = none)
//
// and nothing after the two sections: trailing bytes refuse the file. It is
// written tmp-then-rename with fsyncs on both the file and the directory,
// so a crash leaves either the old state or the new — never a half file
// under the published name. The framing is segment.WriteFrame's, the same
// magic ++ payload ++ CRC-32C envelope the segment store uses, so both
// durability layers fail torn files the same way. The file name carries
// the generation, so the directory listing is the only index: recovery
// tries snap-*.bin newest generation first and takes the first one that
// verifies. Anything else in the directory — including a manifest.json
// left by an older build — is ignored.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"retrodns/internal/scanner"
	"retrodns/internal/segment"
	"retrodns/internal/wire"
)

// LogName is the write-ahead log's file name in a data dir.
const LogName = "wal.log"

const (
	snapMagic  = "RDSS"
	snapPrefix = "snap-"
	snapSuffix = ".bin"
	// keepSnapshots retains the newest N snapshot files; older ones are
	// pruned after each successful write (the previous one stays as a
	// fallback if the newest is damaged on disk).
	keepSnapshots = 2
)

func snapName(gen uint64) string {
	return fmt.Sprintf("%s%08d%s", snapPrefix, gen, snapSuffix)
}

// snapGen parses the generation out of a snapshot file name.
func snapGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	var gen uint64
	if _, err := fmt.Sscanf(mid, "%d", &gen); err != nil || fmt.Sprintf("%08d", gen) != mid {
		return 0, false
	}
	return gen, true
}

// writeSnapshotFile serializes the store's dataset (+ cache, which may be
// nil) into <dir>/snap-<gen>.bin atomically, observing the encode and the
// write apart, and returns the file's size. Each section is encoded once,
// into a buffer sized from the last snapshot's section (sizeHint) or, for
// a store's first, the dataset section from the dataset's own counts
// (SnapshotBytesHint), and the file is written as its parts — magic,
// length, dataset, length, cache, checksum — so no byte of either section
// is copied again on its way to disk.
func (s *Store) writeSnapshotFile(gen uint64) (int64, error) {
	start := time.Now()
	hint := s.dsHint.next(gen)
	if hint == 0 {
		hint = s.ds.SnapshotBytesHint()
	}
	ds, err := s.ds.AppendSnapshot(make([]byte, 0, hint))
	if err != nil {
		return 0, err
	}
	var cache []byte
	if s.cache != nil {
		if cache, err = s.cache.EncodeState(make([]byte, 0, s.cacheHint.next(gen))); err != nil {
			// A cache that cannot serialize (mid-extension mismatch) is
			// dropped from the snapshot, not fatal: recovery rebuilds it.
			cache = nil
		}
	}
	s.dsHint.observe(gen, len(ds))
	s.cacheHint.observe(gen, len(cache))
	var dsLen, cacheLen wire.Writer
	dsLen.Uvarint(uint64(len(ds)))
	cacheLen.Uvarint(uint64(len(cache)))
	start = observe(s.met.snapshotSec, "encode", start)
	n, err := segment.WriteFrame(s.dir, snapName(gen), snapMagic, dsLen.Bytes(), ds, cacheLen.Bytes(), cache)
	observe(s.met.snapshotSec, "write", start)
	return n, err
}

// sizeHint remembers one snapshot section's last encoded size, to size the
// next encoding's buffer. A section grows about with the corpus, so the
// hint scales the last size by how far the generation moved since, plus a
// sixteenth: an underestimate costs one regrow of the buffer, an
// overestimate the unused tail until the write is done.
type sizeHint struct {
	gen   uint64
	bytes int
}

// next is the buffer size for the section's encoding at generation gen.
func (h sizeHint) next(gen uint64) int {
	if h.gen == 0 {
		return 0
	}
	n := float64(h.bytes) * float64(gen) / float64(h.gen)
	return int(n + n/16)
}

// observe records the section's size at generation gen.
func (h *sizeHint) observe(gen uint64, bytes int) { *h = sizeHint{gen: gen, bytes: bytes} }

// loadSnapshotFile reads and verifies one snapshot file, returning the
// dataset and (possibly nil) cache payloads still encoded — the caller
// decodes the cache only after WAL replay has settled the dataset. A
// non-nil spill decodes the dataset out of core (resolving any segment
// references the snapshot carries and enforcing the budget).
func loadSnapshotFile(path string, spill *scanner.SpillOptions) (*scanner.Dataset, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	payload, err := segment.Unframe(snapMagic, data)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s: %v", ErrBadSnapshot, filepath.Base(path), err)
	}
	r := wire.NewReader(payload)
	dsBytes, cacheBytes := r.Section(), r.Section()
	if err := r.Finish(); err != nil {
		return nil, nil, fmt.Errorf("%w: %s: sections: %v", ErrBadSnapshot, filepath.Base(path), err)
	}
	var ds *scanner.Dataset
	if spill != nil {
		ds, err = scanner.DecodeSnapshotSpill(dsBytes, *spill)
	} else {
		ds, err = scanner.DecodeSnapshot(dsBytes)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s: %w", ErrBadSnapshot, filepath.Base(path), err)
	}
	if len(cacheBytes) == 0 {
		return ds, nil, nil
	}
	return ds, cacheBytes, nil
}

// listSnapshots names the snapshot files in dir, newest generation first.
func listSnapshots(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if _, ok := snapGen(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, _ := snapGen(names[i])
		b, _ := snapGen(names[j])
		return a > b
	})
	return names
}

// pruneSnapshots removes all but the newest keepSnapshots snapshot files.
func pruneSnapshots(dir string) {
	names := listSnapshots(dir)
	for _, name := range names[min(len(names), keepSnapshots):] {
		os.Remove(filepath.Join(dir, name))
	}
}
