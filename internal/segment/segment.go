// Package segment is the on-disk half of the out-of-core corpus: an
// append-only store of immutable segment files, each holding one frozen
// shard's record payloads as sorted key/value entries plus a sparse
// per-key offset index. The scanner seals cold shards into segments and
// serves DomainRecords windows back off disk (mmap when the platform has
// it, plain ReadAt streaming otherwise); the WAL layer shares the same
// CRC-32C framing for its snapshot files, so the two storage layers
// verify one format.
//
// A segment file is one frame:
//
//	"RDSG" ++ payload ++ u32le CRC-32C(payload)
//	payload = u8 version(1)
//	       ++ uvarint shard ++ uvarint generation
//	       ++ uvarint len(common)  ++ common        (opaque caller blob)
//	       ++ uvarint entryCount
//	       ++ uvarint len(entries) ++ entries
//	       ++ uvarint anchorCount  ++ anchors
//	entry  = uvarint len(key) ++ key ++ uvarint len(value) ++ value
//	anchor = uvarint len(key) ++ key ++ uvarint entryOffset
//
// Entries are sorted by key (strictly ascending); every anchorEvery-th
// entry is anchored, so a point lookup binary-searches the anchors and
// scans at most anchorEvery entries. The whole payload is checksummed and
// verified at open: segments are immutable, so one verification covers
// every later read.
//
// Writing renders each byte once. A Writer encodes its entries into a
// buffer it keeps across Reset, so one writer serves shard after shard;
// the file is that buffer between a small head and anchor index, appended
// in place to a caller's buffer (AppendTo, which a dataset snapshot frames
// its inline images with) or written to disk part by part with the
// checksum folded over the parts (Store.Seal through WriteFrame, which the
// WAL's snapshot files go through too). Frame builds a frame in a buffer
// of its own, for callers that have one payload in hand.
//
// Decoding operates on attacker-shaped bytes (a garbled file survives its
// CRC one time in 2^32), so every reader path returns typed errors —
// never panics — and bounds every allocation against the remaining input
// (FuzzSegmentReplay enforces the contract).
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"retrodns/internal/wire"
)

// Typed refusals. Everything a damaged segment or frame can provoke maps
// to one of these (possibly wrapped).
var (
	// ErrBadFrame reports a frame with the wrong magic, a truncated body,
	// or a CRC mismatch.
	ErrBadFrame = errors.New("segment: invalid frame")
	// ErrBadSegment reports a structurally invalid segment payload.
	ErrBadSegment = errors.New("segment: invalid segment")
	// ErrUnsortedKeys reports a Writer.Add call out of key order.
	ErrUnsortedKeys = errors.New("segment: keys not strictly ascending")
	// ErrClosed reports a read through a closed Reader.
	ErrClosed = errors.New("segment: reader closed")
)

const (
	fileMagic     = "RDSG"
	formatVersion = 1
	// anchorEvery is the sparse-index stride: one anchor per this many
	// entries, so Get scans at most anchorEvery entries after the binary
	// search.
	anchorEvery = 16
)

// Frame wraps payload as magic ++ payload ++ u32le CRC-32C(payload) — the
// shared framing for segment files and WAL snapshot files — in a buffer of
// its own.
func Frame(magic string, payload []byte) []byte { return AppendFrame(nil, magic, payload) }

// AppendFrame appends the Frame of the concatenation of parts to dst,
// growing it at most once, with the checksum computed over the payload in
// place.
func AppendFrame(dst []byte, magic string, parts ...[]byte) []byte {
	n := len(magic) + 4
	for _, p := range parts {
		n += len(p)
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, magic...)
	start := len(dst)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return binary.LittleEndian.AppendUint32(dst, wire.Checksum(dst[start:]))
}

// WriteFrame lands the Frame of the concatenation of parts at <dir>/<name>
// (AtomicWrite) without assembling it: each part is written as it stands,
// and the checksum is folded over them. It returns the file's size.
func WriteFrame(dir, name, magic string, parts ...[]byte) (int64, error) {
	n := int64(len(magic) + 4)
	crc := uint32(0)
	for _, p := range parts {
		n += int64(len(p))
		crc = wire.UpdateChecksum(crc, p)
	}
	file := make([][]byte, 0, len(parts)+2)
	file = append(file, []byte(magic))
	file = append(file, parts...)
	file = append(file, binary.LittleEndian.AppendUint32(nil, crc))
	return n, AtomicWrite(dir, name, file...)
}

// Unframe verifies a Frame encoding and returns the payload (aliasing
// data). Wrong magic, a short buffer, or a checksum mismatch are
// ErrBadFrame.
func Unframe(magic string, data []byte) ([]byte, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	payload := data[len(magic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if wire.Checksum(payload) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	return payload, nil
}

// AtomicWrite lands the concatenation of parts at <dir>/<name> via tmp +
// fsync + rename + dir fsync: after it returns, a crash yields either the
// old file or the new, never a half-written one under the published name.
func AtomicWrite(dir, name string, parts ...[]byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making a preceding rename durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
