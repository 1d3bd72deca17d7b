package wal

// Snapshot files. A snapshot is one file:
//
//	"RDSS" ++ payload ++ CRC-32C(payload)
//	payload = uvarint(len(dataset)) ++ EncodeSnapshot bytes
//	       ++ uvarint(len(cache))   ++ EncodeState bytes (len 0 = none)
//
// and nothing after the two sections: trailing bytes refuse the file.
// written tmp-then-rename with fsyncs on both the file and the directory,
// so a crash leaves either the old state or the new — never a half file
// under the published name. The framing is segment.Frame, the same
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

	"retrodns/internal/core"
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

// writeSnapshotFile serializes ds (+ cache, which may be nil) into
// <dir>/snap-<gen>.bin atomically.
func writeSnapshotFile(dir string, gen uint64, ds *scanner.Dataset, cache *core.ClassifyCache) error {
	var dsBuf, cacheBuf strings.Builder
	if err := ds.EncodeSnapshot(&dsBuf); err != nil {
		return err
	}
	if cache != nil {
		if err := cache.EncodeState(&cacheBuf); err != nil {
			// A cache that cannot serialize (mid-extension mismatch) is
			// dropped from the snapshot, not fatal: recovery rebuilds it.
			cacheBuf.Reset()
		}
	}
	var w wire.Writer
	w.String(dsBuf.String())
	w.String(cacheBuf.String())
	return segment.AtomicWrite(dir, snapName(gen), segment.Frame(snapMagic, w.Bytes()))
}

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
		return nil, nil, fmt.Errorf("%w: %s: %v", ErrBadSnapshot, filepath.Base(path), err)
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
