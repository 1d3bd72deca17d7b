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

// decodeRecord decodes one record into a fresh allocation of its own: the
// form for WAL batches, whose records belong to different domains. Windows,
// in a segment or a snapshot, go through decodeRecords.
func decodeRecord(r *wire.Reader, certs []*x509lite.Certificate) *Record {
	rec := &Record{}
	decodeRecordInto(r, certs, rec, nil)
	return rec
}

// decodeRecordInto is the one record decoder: it overwrites every field of
// *rec, and every malformed input (IP bytes, port range, cert index, bool
// value, blob and count bounds) latches wire.ErrMalformed on r, after which *rec is
// unspecified and the caller must drop it.
//
// With a non-nil prev, a ports list or country equal to prev's is not
// allocated again: rec takes prev's Ports array and Country string. Inside
// one domain's window that is nearly every record (the same hosts answer on
// the same ports week after week), and it puts decoded records under the
// rule ScanCSV's already live under: Ports is shared between records and
// read-only from the moment the decoder returns.
func decodeRecordInto(r *wire.Reader, certs []*x509lite.Certificate, rec, prev *Record) {
	rec.ScanDate = simtime.Date(r.Int())
	var ip netip.Addr
	if ipRaw := r.Blob(); len(ipRaw) > 0 {
		var ok bool
		if ip, ok = netip.AddrFromSlice(ipRaw); !ok {
			r.Fail("ip bytes")
		}
	}
	rec.IP = ip
	// Ports: one pass that checks every value and compares it with prev's,
	// then a second over the same bytes only when a new array is needed.
	nports := r.Count()
	start := r.Offset()
	same := prev != nil && len(prev.Ports) == nports
	for i := 0; i < nports; i++ {
		p := r.Uvarint()
		if p > math.MaxUint16 {
			r.Fail("port range")
			return
		}
		same = same && prev.Ports[i] == uint16(p)
	}
	var ports []uint16
	switch {
	case nports == 0 || r.Err() != nil:
	case same:
		ports = prev.Ports
	default:
		ports = make([]uint16, nports)
		r.Rewind(start)
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
	if certIdx := r.Uvarint(); r.Err() == nil && certIdx > 0 {
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
// decodeRecordInto). The records come out of slab for as long as it lasts
// and out of fresh bounded slabs after that (all of them, given a nil
// slab). A record dated before the one it follows latches wire.ErrMalformed:
// DomainRecords binary-searches windows by date, so an unsorted one would
// serve the wrong records. It stops at the first latched error; the caller
// checks r.Err and drops the result whole.
func decodeRecords(r *wire.Reader, certs []*x509lite.Certificate, n int, out []*Record, slab []Record) []*Record {
	var prev *Record
	for j := 0; j < n && r.Err() == nil; j++ {
		rec := slabRecord(&slab, n-j)
		decodeRecordInto(r, certs, rec, prev)
		if prev != nil && rec.ScanDate < prev.ScanDate {
			r.Fail("window date order")
		}
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

func (t *certTable) encode(w *wire.Writer) {
	w.Uvarint(uint64(len(t.certs)))
	for _, c := range t.certs {
		encodeCert(w, c)
	}
}

func decodeCertTable(r *wire.Reader) []*x509lite.Certificate {
	n := r.Count()
	certs := make([]*x509lite.Certificate, 0, n)
	for i := 0; i < n; i++ {
		if r.Err() != nil {
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
	w := wire.NewWriter(slices.Grow(dst, 16+128*len(records)))
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
	r := wire.NewReader(data)
	date := simtime.Date(r.Int())
	certs := decodeCertTable(r)
	n := r.Count()
	records := make([]*Record, 0, n)
	for i := 0; i < n; i++ {
		if r.Err() != nil {
			break
		}
		if !r.Bool() {
			records = append(records, nil)
			continue
		}
		records = append(records, decodeRecord(r, certs))
	}
	if err := r.Finish(); err != nil {
		return 0, nil, err
	}
	return date, records, nil
}
