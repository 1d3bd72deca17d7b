// Package wal is retrodnsd's durability layer: an append-only, CRC-framed
// write-ahead log of Dataset.Append batches plus periodic whole-state
// snapshot files (dataset + classify cache). A warm restart
// loads the newest valid snapshot, replays the WAL frames past it, and
// resumes at the exact generation the dying process had published —
// refusing torn tails, CRC mismatches, duplicate or out-of-order
// generations, and clock-skewed scan dates with typed sentinel errors and
// quarantine counters, never panics.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/wire"
	"retrodns/internal/x509lite"
)

// Typed refusals. Everything a garbled or truncated log can provoke maps
// to one of these (possibly wrapped); fuzzing enforces the "typed errors
// only" contract (FuzzWALReplay).
var (
	// ErrTornTail reports a WAL that ends mid-frame — the signature of a
	// crash during an append. The clean prefix is recoverable.
	ErrTornTail = errors.New("wal: torn frame at end of log")
	// ErrCRCMismatch reports a frame whose body fails its checksum.
	ErrCRCMismatch = errors.New("wal: frame CRC mismatch")
	// ErrBadFrame reports a structurally invalid frame: wrong magic,
	// implausible length, an undecodable batch payload, or one that does
	// not continue the log's certificate dictionary.
	ErrBadFrame = errors.New("wal: malformed frame")
	// ErrClockSkew reports an append whose scan date falls outside the
	// study window — a skewed clock upstream, refused before it can
	// poison the dataset's generation sequence.
	ErrClockSkew = errors.New("wal: scan date outside study window")
	// ErrOutOfOrderGeneration reports a frame whose generation is neither
	// a duplicate of an applied one nor the next expected — replay stops
	// at the gap rather than guessing.
	ErrOutOfOrderGeneration = errors.New("wal: out-of-order generation")
	// ErrBadSnapshot reports a snapshot file that fails its checksum or
	// does not decode.
	ErrBadSnapshot = errors.New("wal: invalid snapshot file")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("wal: store closed")
)

// Frame layout: magic ++ body length ++ CRC-32C(body) ++ body, all
// little-endian. A frame starts the log's certificate dictionary or
// continues it. A starting frame ("RDWL") has body = uvarint generation ++
// EncodeBatch payload, so a log an older build wrote, all starting frames,
// replays unchanged. A continuing one ("RDWC") has body = uvarint
// generation ++ uvarint base ++ the payload encoded against the base
// certificates the frames since the last starting one introduced
// (scanner.CertDict).
const (
	frameMagic     = 0x4c574452 // "RDWL"
	frameMagicCont = 0x43574452 // "RDWC"
	frameHeader    = 12
	// maxFrameBody bounds a single batch encoding; anything larger is
	// malformed by construction.
	maxFrameBody = 1 << 28
)

// encodeFrame appends one WAL frame for an Append batch to dst, encoded
// against dict and adding the batch's new certificates to it; certs[i] is
// records[i]'s certificate (scanner.AppendCerts). An empty dict makes a
// starting frame. The header is reserved first and patched once the body,
// encoded in place behind it, has a length and a checksum.
func encodeFrame(dst []byte, dict *scanner.CertDict, gen uint64, date simtime.Date, records []*scanner.Record, certs []*x509lite.Certificate) []byte {
	start := len(dst)
	w := wire.NewWriter(append(dst, make([]byte, frameHeader)...))
	w.Uvarint(gen)
	magic := uint32(frameMagic)
	if base := dict.Len(); base > 0 {
		magic = frameMagicCont
		w.Uvarint(uint64(base))
	}
	dst = dict.AppendBatch(w.Bytes(), date, records, certs)
	header, body := dst[start:], dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(header[0:], magic)
	binary.LittleEndian.PutUint32(header[4:], uint32(len(body)))
	binary.LittleEndian.PutUint32(header[8:], wire.Checksum(body))
	return dst
}

// Replay walks the framed log in data, invoking fn once per valid frame in
// order. It returns the byte offset just past the last fully accepted
// frame, plus the error that stopped the walk: nil when data ends exactly
// on a frame boundary, ErrTornTail / ErrBadFrame / ErrCRCMismatch for log
// damage, or fn's own error (which stops the walk without consuming the
// frame). Replay never panics, whatever the input.
//
// Replay keeps the certificate dictionary the writer kept: a starting frame
// empties it, and a frame's table joins it once fn has consumed the frame.
// A continuing frame must name the dictionary's length exactly as its base,
// which is never 0 (a writer starts a fresh dictionary with a starting
// frame), and a cert index past base plus its own table is refused; so a
// frame spliced in from another log history is a bad frame, not a record
// with some other certificate.
func Replay(data []byte, fn func(gen uint64, date simtime.Date, records []*scanner.Record) error) (int, error) {
	off := 0
	var dict []*x509lite.Certificate
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeader {
			return off, fmt.Errorf("%w: %d trailing bytes", ErrTornTail, len(rest))
		}
		magic := binary.LittleEndian.Uint32(rest)
		if magic != frameMagic && magic != frameMagicCont {
			return off, fmt.Errorf("%w: bad magic at offset %d", ErrBadFrame, off)
		}
		bodyLen := int(binary.LittleEndian.Uint32(rest[4:]))
		if bodyLen > maxFrameBody {
			return off, fmt.Errorf("%w: body length %d at offset %d", ErrBadFrame, bodyLen, off)
		}
		if len(rest) < frameHeader+bodyLen {
			return off, fmt.Errorf("%w: frame needs %d bytes, %d remain", ErrTornTail, frameHeader+bodyLen, len(rest))
		}
		body := rest[frameHeader : frameHeader+bodyLen]
		if wire.Checksum(body) != binary.LittleEndian.Uint32(rest[8:]) {
			return off, fmt.Errorf("%w: at offset %d", ErrCRCMismatch, off)
		}
		r := wire.NewReader(body)
		gen := r.Uvarint()
		base := uint64(0)
		if magic == frameMagicCont {
			base = r.Uvarint()
		}
		if r.Err() != nil {
			return off, fmt.Errorf("%w: unreadable generation at offset %d", ErrBadFrame, off)
		}
		if magic == frameMagicCont && (base == 0 || base != uint64(len(dict))) {
			return off, fmt.Errorf("%w: frame at offset %d continues a dictionary of %d certificates, the log's holds %d", ErrBadFrame, off, base, len(dict))
		}
		date, records, grown, err := scanner.DecodeBatchAfter(body[r.Offset():], dict[:base])
		if err != nil {
			return off, fmt.Errorf("%w: batch at offset %d: %v", ErrBadFrame, off, err)
		}
		if err := fn(gen, date, records); err != nil {
			return off, err
		}
		dict = grown
		off += frameHeader + bodyLen
	}
	return off, nil
}
