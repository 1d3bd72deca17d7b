package scanner

// Binary codec shared by the durability layer (internal/wal) and the
// dataset/cache snapshot writers: varint-framed primitives plus the record
// and certificate encodings used in WAL batch frames and snapshot payloads.
//
// Decoding operates on attacker-shaped bytes (a garbled WAL survives its
// CRC check one time in 2^32), so every reader path returns typed errors —
// never panics — and bounds every allocation against the remaining input.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"slices"

	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

// ErrCodec reports malformed input to any scanner binary decoder.
var ErrCodec = errors.New("scanner: malformed binary encoding")

// maxCodecBlob bounds any single length-prefixed string or byte field.
const maxCodecBlob = 1 << 24

// BinWriter appends varint-framed primitives to a byte slice. The zero
// value is ready to use; Bytes returns the accumulated encoding.
type BinWriter struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (w *BinWriter) Bytes() []byte { return w.buf }

// Uvarint appends an unsigned varint.
func (w *BinWriter) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int appends a signed value (zig-zag varint).
func (w *BinWriter) Int(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *BinWriter) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// String appends a length-prefixed string.
func (w *BinWriter) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (w *BinWriter) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// BinReader consumes primitives written by BinWriter. The first malformed
// read latches an error; subsequent reads return zero values, so decode
// loops can run unchecked and test Err once at the end (plus anywhere a
// value gates an allocation or index).
type BinReader struct {
	buf []byte
	off int
	err error
}

// NewBinReader wraps data for decoding.
func NewBinReader(data []byte) *BinReader { return &BinReader{buf: data} }

// Err returns the first decode error, if any.
func (r *BinReader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *BinReader) Len() int { return len(r.buf) - r.off }

func (r *BinReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrCodec, what, r.off)
	}
}

// Uvarint reads an unsigned varint.
func (r *BinReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a signed (zig-zag) varint.
func (r *BinReader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// Bool reads a one-byte boolean.
func (r *BinReader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("bool")
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.fail("bool value")
		return false
	}
	return b == 1
}

// String reads a length-prefixed string.
func (r *BinReader) String() string {
	b := r.Blob()
	return string(b)
}

// Blob reads a length-prefixed byte slice (aliasing the input buffer).
func (r *BinReader) Blob() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxCodecBlob || n > uint64(r.Len()) {
		r.fail("blob length")
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Count reads a length prefix that gates a loop of per-element decodes.
// Each element consumes at least one input byte, so any count beyond the
// remaining input is malformed — rejecting it here bounds allocations.
func (r *BinReader) Count() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Len()) {
		r.fail("count")
		return 0
	}
	return int(n)
}

// encodeCert writes every public certificate field, so the decoded cert's
// canonical encoding — and therefore its fingerprint — matches the original.
func encodeCert(w *BinWriter, c *x509lite.Certificate) {
	w.Uvarint(c.Serial)
	w.String(string(c.Subject))
	w.Uvarint(uint64(len(c.SANs)))
	for _, san := range c.SANs {
		w.String(string(san))
	}
	w.String(c.Issuer)
	w.String(c.IssuerID)
	w.Int(int64(c.NotBefore))
	w.Int(int64(c.NotAfter))
	w.String(string(c.Method))
	w.Bool(c.IsCA)
	w.String(c.SubjectKeyID)
	w.String(c.SubjectKeyHex)
	w.Blob(c.Signature)
}

func decodeCert(r *BinReader) *x509lite.Certificate {
	c := &x509lite.Certificate{}
	c.Serial = r.Uvarint()
	c.Subject = dnscore.Name(r.String())
	nsans := r.Count()
	for i := 0; i < nsans; i++ {
		c.SANs = append(c.SANs, dnscore.Name(r.String()))
	}
	c.Issuer = r.String()
	c.IssuerID = r.String()
	c.NotBefore = simtime.Date(r.Int())
	c.NotAfter = simtime.Date(r.Int())
	c.Method = x509lite.ValidationMethod(r.String())
	c.IsCA = r.Bool()
	c.SubjectKeyID = r.String()
	c.SubjectKeyHex = r.String()
	if sig := r.Blob(); len(sig) > 0 {
		c.Signature = append([]byte(nil), sig...)
	}
	return c
}

// encodeRecord writes one record with its certificate replaced by an index
// into a shared cert table (WAL frames and snapshots both store each
// distinct certificate once). certIdx 0 means "no certificate"; table
// entries are stored as index+1.
func encodeRecord(w *BinWriter, r *Record, certIdx uint64) {
	w.Int(int64(r.ScanDate))
	w.Blob(r.IP.AsSlice())
	w.Uvarint(uint64(len(r.Ports)))
	for _, p := range r.Ports {
		w.Uvarint(uint64(p))
	}
	w.Uvarint(uint64(r.ASN))
	w.String(string(r.Country))
	w.Uvarint(certIdx)
	w.Int(r.CrtShID)
	w.Bool(r.Trusted)
	w.Bool(r.Sensitive)
}

// decodeRecord decodes one record into a fresh allocation of its own: the
// form for decoders whose records outlive one another (WAL batches, rds1
// snapshots). Windows read off a segment go through decodeRecords.
func decodeRecord(r *BinReader, certs []*x509lite.Certificate) *Record {
	rec := &Record{}
	decodeRecordInto(r, certs, rec, nil)
	return rec
}

// decodeRecordInto is the one record decoder: it overwrites every field of
// *rec, and every malformed input (IP bytes, port range, cert index, bool
// value, blob and count bounds) latches ErrCodec on r, after which *rec is
// unspecified and the caller must drop it.
//
// With a non-nil prev, a ports list or country equal to prev's is not
// allocated again: rec takes prev's Ports array and Country string. Inside
// one domain's window that is nearly every record (the same hosts answer on
// the same ports week after week), and it puts decoded records under the
// rule ScanCSV's already live under: Ports is shared between records and
// read-only from the moment the decoder returns.
func decodeRecordInto(r *BinReader, certs []*x509lite.Certificate, rec, prev *Record) {
	rec.ScanDate = simtime.Date(r.Int())
	var ip netip.Addr
	if ipRaw := r.Blob(); len(ipRaw) > 0 {
		var ok bool
		if ip, ok = netip.AddrFromSlice(ipRaw); !ok {
			r.fail("ip bytes")
		}
	}
	rec.IP = ip
	// Ports: one pass that checks every value and compares it with prev's,
	// then a second over the same bytes only when a new array is needed.
	nports := r.Count()
	start := r.off
	same := prev != nil && len(prev.Ports) == nports
	for i := 0; i < nports; i++ {
		p := r.Uvarint()
		if p > math.MaxUint16 {
			r.fail("port range")
			return
		}
		same = same && prev.Ports[i] == uint16(p)
	}
	var ports []uint16
	switch {
	case nports == 0 || r.err != nil:
	case same:
		ports = prev.Ports
	default:
		ports = make([]uint16, nports)
		r.off = start
		for i := range ports {
			ports[i] = uint16(r.Uvarint())
		}
	}
	rec.Ports = ports
	rec.ASN = ipmeta.ASN(r.Uvarint())
	if country := r.Blob(); prev != nil && string(country) == string(prev.Country) {
		rec.Country = prev.Country
	} else {
		rec.Country = ipmeta.CountryCode(country)
	}
	var cert *x509lite.Certificate
	if certIdx := r.Uvarint(); r.err == nil && certIdx > 0 {
		if certIdx > uint64(len(certs)) {
			r.fail("cert index")
		} else {
			cert = certs[certIdx-1]
		}
	}
	rec.Cert = cert
	rec.CrtShID = r.Int()
	rec.Trusted = r.Bool()
	rec.Sensitive = r.Bool()
}

// slabRecord hands out the next Record of *slab, refilling it when empty
// with the smaller of want and recordSlab. The bound is what keeps a few
// retained records from pinning everything decoded beside them.
func slabRecord(slab *[]Record, want int) *Record {
	if len(*slab) == 0 {
		*slab = make([]Record, min(want, recordSlab))
	}
	rec := &(*slab)[0]
	*slab = (*slab)[1:]
	return rec
}

// decodeRecords decodes n consecutive records onto out, each record sharing
// what it repeats of the one before it (see decodeRecordInto). The records
// come out of slab for as long as it lasts and out of fresh bounded slabs
// after that (all of them, given a nil slab). It stops at the first latched
// error; the caller checks r.Err and drops the result whole.
func decodeRecords(r *BinReader, certs []*x509lite.Certificate, n int, out []*Record, slab []Record) []*Record {
	var prev *Record
	for j := 0; j < n && r.err == nil; j++ {
		rec := slabRecord(&slab, n-j)
		decodeRecordInto(r, certs, rec, prev)
		out = append(out, rec)
		prev = rec
	}
	return out
}

// certTable assigns a dense index to each distinct certificate (by
// fingerprint) in first-seen order.
type certTable struct {
	idx   map[x509lite.Fingerprint]uint64
	certs []*x509lite.Certificate
	// last is the certificate add answered most recently, at index lastIdx.
	// A domain's records follow one another and mostly carry one
	// certificate, so a run of them costs one fingerprint lookup.
	last    *x509lite.Certificate
	lastIdx uint64
}

// newCertTable makes a table expecting some hint distinct certificates.
func newCertTable(hint int) *certTable {
	return &certTable{idx: make(map[x509lite.Fingerprint]uint64, hint)}
}

func (t *certTable) add(c *x509lite.Certificate) uint64 {
	if c == t.last {
		return t.lastIdx
	}
	fp := c.Fingerprint()
	i, ok := t.idx[fp]
	if !ok {
		i = uint64(len(t.certs))
		t.idx[fp] = i
		t.certs = append(t.certs, c)
	}
	t.last, t.lastIdx = c, i
	return i
}

func (t *certTable) encode(w *BinWriter) {
	w.Uvarint(uint64(len(t.certs)))
	for _, c := range t.certs {
		encodeCert(w, c)
	}
}

func decodeCertTable(r *BinReader) []*x509lite.Certificate {
	n := r.Count()
	certs := make([]*x509lite.Certificate, 0, n)
	for i := 0; i < n; i++ {
		if r.err != nil {
			return certs
		}
		certs = append(certs, decodeCert(r))
	}
	return certs
}

// EncodeBatch serializes one Append batch — a scan date plus its records —
// for a WAL frame body. Nil records are preserved positionally (a strict
// dataset must see the same batch shape on replay that it saw live).
func EncodeBatch(date simtime.Date, records []*Record) []byte {
	return AppendBatch(nil, date, records)
}

// AppendBatch appends EncodeBatch's encoding of the batch to dst, growing
// it once, so a caller framing the batch builds the frame in one buffer.
func AppendBatch(dst []byte, date simtime.Date, records []*Record) []byte {
	// A record and its share of the certificate table come to some 120 bytes
	// on the synthetic corpora; an underestimate only costs a regrow.
	w := BinWriter{buf: slices.Grow(dst, 16+128*len(records))}
	w.Int(int64(date))
	// One certificate a record is the common feed: a host's long-lived own.
	table := newCertTable(len(records))
	idxs := make([]uint64, len(records))
	for i, rec := range records {
		if rec != nil && rec.Cert != nil {
			idxs[i] = table.add(rec.Cert) + 1 // 0 = no cert
		}
	}
	table.encode(&w)
	w.Uvarint(uint64(len(records)))
	for i, rec := range records {
		if rec == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		encodeRecord(&w, rec, idxs[i])
	}
	return w.Bytes()
}

// DecodeBatch is the inverse of EncodeBatch.
func DecodeBatch(data []byte) (simtime.Date, []*Record, error) {
	r := NewBinReader(data)
	date := simtime.Date(r.Int())
	certs := decodeCertTable(r)
	n := r.Count()
	records := make([]*Record, 0, n)
	for i := 0; i < n; i++ {
		if r.err != nil {
			break
		}
		if !r.Bool() {
			records = append(records, nil)
			continue
		}
		records = append(records, decodeRecord(r, certs))
	}
	if r.err != nil {
		return 0, nil, r.err
	}
	if r.Len() != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, r.Len())
	}
	return date, records, nil
}
