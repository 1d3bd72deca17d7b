package scanner

// The record and certificate encodings used in WAL batch frames, snapshot
// payloads and segment windows, built on the internal/wire codec. Every
// decoder here refuses malformed input with wire.ErrMalformed and never
// panics.

import (
	"math"
	"net/netip"
	"slices"

	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/simtime"
	"retrodns/internal/wire"
	"retrodns/internal/x509lite"
)

// encodeCert writes every public certificate field, so the decoded cert's
// canonical encoding — and therefore its fingerprint — matches the original.
func encodeCert(w *wire.Writer, c *x509lite.Certificate) {
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

func decodeCert(r *wire.Reader) *x509lite.Certificate {
	c := &x509lite.Certificate{}
	c.Serial = r.Uvarint()
	c.Subject = dnscore.Name(r.String())
	if n := r.Count(); n > 0 {
		c.SANs = make([]dnscore.Name, n)
		for i := range c.SANs {
			c.SANs[i] = dnscore.Name(r.String())
		}
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
func encodeRecord(w *wire.Writer, r *Record, certIdx uint64) {
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

// decodeRecordInto is the one record decoder: it reads one record in one
// pass over its bytes and overwrites every field of *rec. Every malformed
// input (IP bytes, port range, cert index, bool value, blob and count
// bounds) latches on r, after which *rec is unspecified and the caller must
// drop it.
//
// Ports are appended to *ports, the decode's port storage, and rec.Ports is
// a capped slice of it; a list equal to prev's (nil prev: none) takes
// prev's instead and leaves the storage as it was. Inside one domain's
// window that is nearly every record (the same hosts answer on the same
// ports week after week). Decoded records live under the rule ScanCSV's
// already live under: Ports is shared and read-only from the moment the
// decoder returns. A country equal to prev's takes prev's string, a
// two-letter upper-case one the static table's, and anything else a
// conversion of its own.
func decodeRecordInto(r *wire.Reader, certs []*x509lite.Certificate, rec, prev *Record, ports *[]uint16) {
	rec.ScanDate = simtime.Date(r.Int())
	var ip netip.Addr
	if raw := r.Blob(); len(raw) > 0 {
		var ok bool
		if ip, ok = netip.AddrFromSlice(raw); !ok {
			r.Fail("ip bytes")
		}
	}
	rec.IP = ip
	rec.Ports = nil
	if n := r.Count(); n > 0 {
		buf := *ports
		start := len(buf)
		for i := 0; i < n; i++ {
			p := r.Uvarint()
			if p > math.MaxUint16 {
				r.Fail("port range")
				return
			}
			buf = append(buf, uint16(p))
		}
		if got := buf[start:len(buf):len(buf)]; prev != nil && slices.Equal(got, prev.Ports) {
			rec.Ports, *ports = prev.Ports, buf[:start]
		} else {
			rec.Ports, *ports = got, buf
		}
	}
	rec.ASN = ipmeta.ASN(r.Uvarint())
	if b := r.Blob(); prev != nil && string(b) == string(prev.Country) {
		rec.Country = prev.Country
	} else {
		rec.Country = countryCode(b)
	}
	var cert *x509lite.Certificate
	if certIdx := r.Uvarint(); certIdx > 0 {
		if certIdx > uint64(len(certs)) {
			r.Fail("cert index")
		} else {
			cert = certs[certIdx-1]
		}
	}
	rec.Cert = cert
	rec.CrtShID = r.Int()
	rec.Trusted = r.Bool()
	rec.Sensitive = r.Bool()
}

// countryCodes holds every two-letter upper-case code, AA to ZZ, as one
// string each: what a decoded record's Country is, for any such code, at no
// allocation.
var countryCodes = func() (t [26 * 26]ipmeta.CountryCode) {
	var all [2 * len(t)]byte
	for i := range t {
		all[2*i], all[2*i+1] = 'A'+byte(i/26), 'A'+byte(i%26)
	}
	s := string(all[:])
	for i := range t {
		t[i] = ipmeta.CountryCode(s[2*i : 2*i+2])
	}
	return t
}()

// countryCode returns b as a country code, from countryCodes when it is
// one of them.
func countryCode(b []byte) ipmeta.CountryCode {
	if len(b) == 2 && b[0]-'A' < 26 && b[1]-'A' < 26 {
		return countryCodes[int(b[0]-'A')*26+int(b[1]-'A')]
	}
	return ipmeta.CountryCode(b)
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

// decodeRecords decodes n consecutive records of one window onto out, each
// record sharing what it repeats of the one before it (see
// decodeRecordInto), its ports appended to *ports. The records come out of
// slab for as long as it lasts and out of fresh bounded slabs after that
// (all of them, given a nil slab). A record dated before the one it
// follows is refused: DomainRecords binary-searches windows by date, so an
// unsorted one would serve the wrong records. It stops at the first
// refusal; the caller drops the result whole.
func decodeRecords(r *wire.Reader, certs []*x509lite.Certificate, n int, out []*Record, slab []Record, ports *[]uint16) []*Record {
	var prev *Record
	for j := 0; j < n && r.Err() == nil; j++ {
		rec := slabRecord(&slab, n-j)
		decodeRecordInto(r, certs, rec, prev, ports)
		if prev != nil && rec.ScanDate < prev.ScanDate {
			r.Fail("window date order")
		}
		out = append(out, rec)
		prev = rec
	}
	return out
}

// certTable assigns a dense index to each distinct certificate (by
// fingerprint) in first-seen order. Entries below base were written by an
// earlier encoding against the same table (a WAL log's dictionary, see
// CertDict); certs holds the ones after them, entry base+i at certs[i], and
// encode writes only those.
type certTable struct {
	idx   map[x509lite.Fingerprint]uint64
	base  uint64
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
		i = t.base + uint64(len(t.certs))
		t.idx[fp] = i
		t.certs = append(t.certs, c)
	}
	t.last, t.lastIdx = c, i
	return i
}

func (t *certTable) encode(w *wire.Writer) {
	w.Uvarint(uint64(len(t.certs)))
	for _, c := range t.certs {
		encodeCert(w, c)
	}
}

// decodeCertTable decodes a certificate table onto dst.
func decodeCertTable(r *wire.Reader, dst []*x509lite.Certificate) []*x509lite.Certificate {
	n := r.Count()
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		if r.Err() != nil {
			return dst
		}
		dst = append(dst, decodeCert(r))
	}
	return dst
}

// EncodeBatch serializes one Append batch — a scan date plus its records —
// for a WAL frame body that starts a certificate dictionary. Nil records are
// preserved positionally (a strict dataset must see the same batch shape on
// replay that it saw live).
func EncodeBatch(date simtime.Date, records []*Record) []byte {
	var dict CertDict
	return dict.AppendBatch(nil, date, records, AppendCerts(nil, records))
}

// AppendCerts appends each record's certificate to dst (nil for a nil
// record), in order: the certs argument of CertDict.AppendBatch.
func AppendCerts(dst []*x509lite.Certificate, records []*Record) []*x509lite.Certificate {
	for _, rec := range records {
		var c *x509lite.Certificate
		if rec != nil {
			c = rec.Cert
		}
		dst = append(dst, c)
	}
	return dst
}

// CertDict is the writing side of a WAL log's certificate dictionary: every
// certificate, by fingerprint, that the batches encoded against it since it
// was last empty have introduced. A batch's table then holds only the
// certificates the dictionary lacks, and a record's cert index k counts
// through the dictionary first and the batch's own table after it
// (DecodeBatchAfter). Against an empty dictionary a batch encodes as
// EncodeBatch's. The zero value is an empty dictionary.
type CertDict struct {
	table certTable
	idxs  []uint64
}

// Len is the number of certificates in d: the base the next batch encodes
// against.
func (d *CertDict) Len() int { return int(d.table.base) }

// Reset empties d.
func (d *CertDict) Reset() {
	clear(d.table.idx)
	d.table.base, d.table.last = 0, nil
}

// AppendBatch appends the encoding of one Append batch against d to dst,
// growing it once, and adds the batch's new certificates to d. certs[i] is
// records[i]'s certificate (AppendCerts): the encoder reads certificates
// from certs only, so a caller may let ingest rewrite Record.Cert meanwhile.
func (d *CertDict) AppendBatch(dst []byte, date simtime.Date, records []*Record, certs []*x509lite.Certificate) []byte {
	t := &d.table
	if t.idx == nil {
		// One certificate a record is the common feed: a host's long-lived own.
		t.idx = make(map[x509lite.Fingerprint]uint64, len(records))
	}
	// A record and its share of the certificate table come to some 120 bytes
	// on the synthetic corpora; an underestimate only costs a regrow.
	w := wire.NewWriter(slices.Grow(dst, 16+128*len(records)))
	w.Int(int64(date))
	idxs := slices.Grow(d.idxs[:0], len(records))[:len(records)]
	for i, c := range certs {
		idxs[i] = 0 // 0 = no cert
		if c != nil {
			idxs[i] = t.add(c) + 1
		}
	}
	t.encode(&w)
	w.Uvarint(uint64(len(records)))
	for i, rec := range records {
		if rec == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		encodeRecord(&w, rec, idxs[i])
	}
	// The batch's table is in the dictionary from here on; drop the pointers.
	t.base += uint64(len(t.certs))
	clear(t.certs)
	t.certs, d.idxs = t.certs[:0], idxs
	return w.Bytes()
}

// DecodeBatch is the inverse of EncodeBatch: DecodeBatchAfter against an
// empty dictionary.
func DecodeBatch(data []byte) (simtime.Date, []*Record, error) {
	date, records, _, err := DecodeBatchAfter(data, nil)
	return date, records, err
}

// DecodeBatchAfter decodes a batch CertDict.AppendBatch encoded against a
// dictionary of len(dict) certificates, dict being what the batches before
// it decoded to. The batch's table is appended to dict and returned as the
// dictionary the next batch continues (dict's backing array may be
// written past its length); a cert index past the two together is refused.
// Each record is an allocation of its own, its ports an exact-size array of
// their own (a batch's records belong to different domains and shards, so
// no record pins another's); a ports list equal to the record before's is
// shared with it.
func DecodeBatchAfter(data []byte, dict []*x509lite.Certificate) (simtime.Date, []*Record, []*x509lite.Certificate, error) {
	r := wire.NewReader(data)
	date := simtime.Date(r.Int())
	certs := decodeCertTable(r, dict)
	n := r.Count()
	records := make([]*Record, 0, n)
	var prev *Record
	var scratch []uint16
	for i := 0; i < n && r.Err() == nil; i++ {
		if !r.Bool() {
			records = append(records, nil)
			continue
		}
		rec := &Record{}
		ports := scratch[:0]
		decodeRecordInto(r, certs, rec, prev, &ports)
		if len(ports) > 0 { // rec.Ports is the scratch's, not prev's
			rec.Ports = slices.Clip(slices.Clone(ports))
		}
		scratch = ports
		records = append(records, rec)
		prev = rec
	}
	if err := r.Finish(); err != nil {
		return 0, nil, nil, err
	}
	return date, records, certs, nil
}
