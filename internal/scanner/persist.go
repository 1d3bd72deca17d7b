package scanner

// Snapshot serialization for the durability layer (internal/wal): a frozen
// Dataset round-trips through EncodeSnapshot/DecodeSnapshot to exactly the
// state a warm-restarted daemon needs — per-shard sorted indexes, dirty-cell
// journals, quarantine journals, the scan-date roster, and the generation —
// so recovery resumes Append/DirtySince/report flows as if the process had
// never died.
//
// A shard at rest is a segment. A spilled shard's section names the file it
// sealed to; a resident shard's section carries the image it would seal to,
// inline, rendered by the seal path (shardSegment) and made resident by the
// unspill path (segmentCerts, segmentWindows). So a window at rest has one
// encoding, a segment entry, and every stored shard one set of checks. Each
// image carries its shard's certificate table, re-interned through the
// dataset's pool on decode, so the restored pool gauges match a live ingest
// of the same corpus; and each shard's section is self-contained, so the
// shards decode in parallel — in two passes, so that the tables' counts
// size the pool before any shard's table joins it. Records indexed under
// several registered domains are serialized per domain — the restored
// instances are distinct pointers, which every consumer tolerates (windows
// are per-domain and all cross-window counts are serialized explicitly).
//
// The payload, every field a wire primitive:
//
//	magic "rds3" ++ shards ++ generation ++ records ++ domains
//	  ++ scan dates ++ dirty periods ++ quarantine seq ++ quarantine journal
//	  ++ shards × section(shard)
//	shard = spilled bool ++ (segment file name | section(segment image))
//	  ++ quarantine journal ++ dirty journal ++ attach ++ domain roster

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"retrodns/internal/dnscore"
	"retrodns/internal/segment"
	"retrodns/internal/simtime"
	"retrodns/internal/wire"
	"retrodns/internal/x509lite"
)

// ErrSnapshotState reports a snapshot payload that decoded structurally but
// violates dataset invariants (wrong shard routing, a domain listed twice,
// a shard image that does not match its roster).
var ErrSnapshotState = errors.New("scanner: invalid snapshot state")

// ErrSnapshotFormat reports a snapshot payload in a layout this build does
// not read: an older one, whose shards were not segments, or none at all.
// A store that meets one restores from an older snapshot or cold.
var ErrSnapshotFormat = errors.New("scanner: unknown snapshot format")

// ErrNotFrozen reports an EncodeSnapshot call on an unfrozen dataset.
var ErrNotFrozen = errors.New("scanner: dataset not frozen")

// snapshotFormat is the magic of the dataset snapshot payload.
const snapshotFormat = "rds3"

func encodeQuar(w *wire.Writer, q *quarantine) {
	w.Uvarint(uint64(numQuarReasons))
	for _, n := range q.counts {
		w.Uvarint(uint64(n))
	}
	w.Uvarint(uint64(q.total))
	w.Uvarint(uint64(len(q.examples)))
	for _, ex := range q.examples {
		w.Uvarint(uint64(ex.Reason))
		w.Int(int64(ex.Date))
		w.String(ex.Detail)
		w.Uvarint(ex.seq)
	}
}

func decodeQuar(r *wire.Reader, q *quarantine) {
	nreasons := r.Count()
	if nreasons != int(numQuarReasons) {
		r.Fail("quarantine reason count")
		return
	}
	for i := 0; i < nreasons; i++ {
		q.counts[i] = int(r.Uvarint())
	}
	q.total = int(r.Uvarint())
	nex := r.Count()
	for i := 0; i < nex; i++ {
		if r.Err() != nil {
			return
		}
		reason := QuarantineReason(r.Uvarint())
		date := simtime.Date(r.Int())
		detail := r.String()
		seq := r.Uvarint()
		if reason >= numQuarReasons {
			r.Fail("quarantine reason")
			return
		}
		q.examples = append(q.examples, quarExample{
			QuarantinedRecord: QuarantinedRecord{Reason: reason, Date: date, Detail: detail},
			seq:               seq,
		})
	}
}

// EncodeSnapshot writes the frozen dataset's snapshot payload
// (AppendSnapshot) to out in one write.
func (d *Dataset) EncodeSnapshot(out io.Writer) error {
	payload, err := d.AppendSnapshot(nil)
	if err != nil {
		return err
	}
	_, err = out.Write(payload)
	return err
}

// AppendSnapshot appends the frozen dataset's snapshot payload to dst and
// returns the extended slice; framing, checksums, and fsync discipline are
// the caller's (internal/wal's) concern. Every resident shard's segment
// image is framed in place in dst, rendered by one segment writer reused
// from shard to shard, so a caller that sizes dst from the last snapshot
// gets the payload with no byte of it copied twice.
func (d *Dataset) AppendSnapshot(dst []byte) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	view := d.view.Load()
	if view == nil {
		return dst, ErrNotFrozen
	}

	w := wire.NewWriter(dst)
	w.String(snapshotFormat)
	w.Uvarint(uint64(len(d.shards)))
	w.Uvarint(view.generation)
	w.Uvarint(uint64(view.records))
	w.Uvarint(uint64(view.domainCount))
	w.Uvarint(uint64(len(view.scanDates)))
	for _, date := range view.scanDates {
		w.Int(int64(date))
	}
	w.Uvarint(uint64(bits.OnesCount16(d.dirtyPeriods.since(0))))
	for p, gen := range d.dirtyPeriods {
		if gen != 0 {
			w.Int(int64(p))
			w.Uvarint(gen)
		}
	}
	w.Uvarint(d.quarSeq)
	encodeQuar(&w, &d.quar)
	dst = w.Bytes()

	// A shard's section is ref ++ image ++ rest, behind its length.
	var head, ref, rest wire.Writer
	var b imageBuffers
	for sid, s := range d.shards {
		s.mu.RLock()
		idx := s.idx.Load()
		ref, rest = wire.NewWriter(ref.Bytes()[:0]), wire.NewWriter(rest.Bytes()[:0])
		ref.Bool(idx.spill != nil)
		image := 0
		if idx.spill != nil {
			ref.String(idx.spill.file)
		} else {
			shardSegment(&b, sid, view.generation, idx)
			var err error
			if image, err = b.seg.Size(); err != nil {
				s.mu.RUnlock()
				return dst, fmt.Errorf("%w: shard %d image: %v", ErrSnapshotState, sid, err)
			}
			ref.Uvarint(uint64(image))
		}
		// Journals and the domain roster stay beside the segment: they are
		// resident state it does not carry.
		encodeQuar(&rest, &s.quar)
		idx.encodeDirty(&rest)
		rest.Uvarint(uint64(idx.attach))
		rest.Uvarint(uint64(len(idx.domains)))
		for _, domain := range idx.domains {
			rest.String(string(domain))
		}
		s.mu.RUnlock()
		head = wire.NewWriter(head.Bytes()[:0])
		head.Uvarint(uint64(ref.Len() + image + rest.Len()))
		dst = append(append(dst, head.Bytes()...), ref.Bytes()...)
		if image > 0 {
			dst, _ = b.seg.AppendTo(dst) // Size has rendered it once already
		}
		dst = append(dst, rest.Bytes()...)
	}
	return dst, nil
}

// DecodeSnapshot reconstructs a frozen dataset from an EncodeSnapshot
// payload. The input is assumed checksummed by the caller; decode still
// never panics and validates shard routing, every shard image against its
// roster, and window order, so a corrupt payload yields a typed error, not
// a poisoned dataset. A snapshot with spilled shards requires
// DecodeSnapshotSpill — without a segment store the references cannot be
// resolved.
func DecodeSnapshot(data []byte) (*Dataset, error) {
	return decodeSnapshot(data, nil)
}

// DecodeSnapshotSpill reconstructs a frozen dataset whose spilled shards
// resolve against the segment store in opts.Dir, and leaves the dataset
// configured with opts (so the budget keeps being enforced): shards stored
// inline decode resident, and the budget is enforced before returning.
func DecodeSnapshotSpill(data []byte, opts SpillOptions) (*Dataset, error) {
	return decodeSnapshot(data, &opts)
}

// decodeSnapshot reads the header, slices out each shard's section, and
// then decodes the sections on parallel workers: each is self-contained,
// and every worker writes only its own shard.
func decodeSnapshot(data []byte, opts *SpillOptions) (*Dataset, error) {
	r := wire.NewReader(data)
	if magic := r.String(); r.Err() != nil {
		return nil, r.Err()
	} else if magic != snapshotFormat {
		return nil, fmt.Errorf("%w: magic %q", ErrSnapshotFormat, magic)
	}
	nshards := int(r.Uvarint())
	if r.Err() != nil || nshards < 1 || nshards > maxShards {
		return nil, fmt.Errorf("%w: shard count", wire.ErrMalformed)
	}
	d := NewDatasetShards(nshards)
	if opts != nil {
		// The decoded dataset keeps the spill configuration: spilled shards
		// resolve against its store, and the budget is enforced once they
		// have decoded and on every subsequent Append.
		store, err := segment.OpenStore(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpill, err)
		}
		d.spill = &spillState{store: store, budget: opts.BudgetBytes, mode: opts.Mode, lastTouch: make([]uint64, nshards)}
	}
	generation := r.Uvarint()
	records := int(r.Uvarint())
	domainCount := int(r.Uvarint())

	ndates := r.Count()
	scanDates := make([]simtime.Date, 0, ndates)
	for i := 0; i < ndates; i++ {
		scanDates = append(scanDates, simtime.Date(r.Int()))
	}
	nper := r.Count()
	for i := 0; i < nper; i++ {
		p := simtime.Period(r.Int())
		gen := r.Uvarint()
		if !p.Valid() {
			r.Fail("dirty period")
		}
		if r.Err() == nil {
			d.dirtyPeriods[p] = gen
		}
	}
	d.quarSeq = r.Uvarint()
	decodeQuar(r, &d.quar)
	sections := make([][]byte, nshards)
	for sid := range sections {
		sections[sid] = r.Section()
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}

	// Every shard's section decodes up to its certificate table first, so
	// the pool is sized from the tables' counts before any shard adopts.
	errs := make([]error, nshards)
	decoded := make([]*shardSection, nshards)
	workers := shardWorkers(records, nshards)
	forShards(nshards, workers, func(sid int) {
		decoded[sid], errs[sid] = d.readShard(sid, sections[sid])
	})
	certs, names := 0, 0
	for sid, err := range errs {
		if err != nil {
			for _, sec := range decoded {
				if sec != nil {
					sec.seg.Close()
				}
			}
			return nil, err
		}
		for _, c := range decoded[sid].certs {
			certs, names = certs+1, names+1+len(c.SANs)
		}
	}
	d.pool.certs.Reserve(certs)
	d.pool.names.reserve(names)
	forShards(nshards, workers, func(sid int) {
		errs[sid] = d.installShard(sid, decoded[sid])
	})
	rosters := make([][]dnscore.Name, nshards)
	for sid, err := range errs {
		if err != nil {
			return nil, err
		}
		rosters[sid] = d.shards[sid].idx.Load().domains
	}
	domains := mergeDomains(nil, rosters...)
	if len(domains) != domainCount {
		return nil, fmt.Errorf("%w: domain count %d != %d", ErrSnapshotState, len(domains), domainCount)
	}
	d.view.Store(&datasetView{
		generation:  generation,
		domains:     domains,
		scanDates:   scanDates,
		periods:     periodsOf(scanDates),
		records:     records,
		domainCount: domainCount,
	})
	// Shards stored inline under a tight budget spill here. No other
	// goroutine can hold d yet, so the *Locked path runs unlocked.
	if err := d.enforceSpillLocked(); err != nil {
		return nil, err
	}
	return d, nil
}

// shardSection is one shard's snapshot section, decoded as far as
// readShard takes it: the roster and journals, and the shard's segment
// with its certificate table not yet adopted by the pool.
type shardSection struct {
	idx   *shardIndex
	seg   *segment.Reader
	file  string // the spilled shard's segment file; "" for an inline image
	certs []*x509lite.Certificate
}

// readShard decodes shard sid's section: the roster and journals, and the
// shard's segment — its sealed file in the spill store, or its inline
// image — which must be shard sid's over exactly the roster, up to its
// certificate table. Of d it writes shard sid's quarantine journal only.
func (d *Dataset) readShard(sid int, section []byte) (*shardSection, error) {
	r := wire.NewReader(section)
	// A file name and an image share one encoding: length, then bytes.
	spilled, ref := r.Bool(), r.Section()
	decodeQuar(r, &d.shards[sid].quar)
	cells := decodeDirty(r)
	attach := int(r.Uvarint())
	ndom := r.Count()
	roster := make([]dnscore.Name, 0, ndom)
	for i := 0; i < ndom && r.Err() == nil; i++ {
		roster = append(roster, dnscore.Name(r.String()))
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if err := checkRoster(roster, sid, len(d.shards)); err != nil {
		return nil, err
	}
	dirty, err := alignDirty(roster, cells)
	if err != nil {
		return nil, err
	}
	sec := &shardSection{idx: &shardIndex{domains: roster, attach: attach, dirty: dirty}}
	if spilled {
		if d.spill == nil {
			return nil, fmt.Errorf("%w: shard %d is spilled; decode with a spill dir", ErrSnapshotState, sid)
		}
		sec.file = string(ref)
		if sec.seg, err = d.spill.store.OpenName(sec.file, d.spill.mode); err != nil {
			return nil, fmt.Errorf("%w: shard %d segment %s: %v", ErrSpill, sid, sec.file, err)
		}
		if sec.certs, err = segmentCerts(sec.seg, sid, roster); err != nil {
			sec.seg.Close()
			return nil, fmt.Errorf("%w: segment %s: %w", ErrSpill, sec.file, err)
		}
		return sec, nil
	}
	if sec.seg, err = segment.Open(ref); err == nil {
		sec.certs, err = segmentCerts(sec.seg, sid, roster)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: shard %d image: %w", ErrSnapshotState, sid, err)
	}
	return sec, nil
}

// installShard has the pool adopt shard sid's certificate table, so the
// certificates its windows decode to are the ones a live ingest would
// hold, and installs the shard's index: read through its spilled segment,
// or with its inline image's windows resident. Writes shard sid and the
// concurrency-safe pool only.
func (d *Dataset) installShard(sid int, sec *shardSection) error {
	for i, c := range sec.certs {
		sec.certs[i] = d.pool.AdoptCert(c)
	}
	idx := sec.idx
	if sec.file != "" {
		idx.spill = newSpillReader(sec.seg, sec.file, sec.certs, &d.segmet)
	} else {
		windows, err := segmentWindows(sec.seg, idx.domains, sec.certs)
		if err != nil {
			return fmt.Errorf("%w: shard %d image: %w", ErrSnapshotState, sid, err)
		}
		idx.windows, idx.pos = windows, rankDomains(idx.domains)
	}
	s := d.shards[sid]
	s.byDomain = nil
	s.attach = idx.attach
	s.idx.Store(idx)
	return nil
}

// checkRoster holds a decoded shard's domain roster to what its index
// assumes: every domain routed to shard sid, and the list strictly
// ascending, so no domain is listed twice.
func checkRoster(doms []dnscore.Name, sid, nshards int) error {
	for i, domain := range doms {
		if home := shardIndexOf(domain, nshards); home != sid {
			return fmt.Errorf("%w: domain %q routed to shard %d, stored in %d", ErrSnapshotState, domain, home, sid)
		}
		if i > 0 && doms[i-1] >= domain {
			return fmt.Errorf("%w: shard %d domain list not strictly ascending at %q", ErrSnapshotState, sid, domain)
		}
	}
	return nil
}

// AccountRestored replays the restored corpus into the dataset's metric
// handles, so a warm-restarted process exports the same cumulative ingest
// counters an uninterrupted one would: one accepted scan per restored scan
// date, the restored record count, and the journaled per-reason quarantine
// totals. Call once, after SetMetrics, on a dataset from DecodeSnapshot.
func (d *Dataset) AccountRestored() {
	d.mu.Lock()
	defer d.mu.Unlock()
	view := d.view.Load()
	if view == nil {
		return
	}
	d.met.scans.Add(int64(len(view.scanDates)))
	d.met.records.Add(int64(view.records))
	var merged quarantine
	merged.absorb(&d.quar)
	for _, s := range d.shards {
		merged.absorb(&s.quar)
	}
	for reason, n := range merged.counts {
		if n > 0 {
			d.met.quarantined[reason].Add(int64(n))
		}
	}
	d.publishSizeLocked()
}

// encodeDirty writes the shard's dirty journal: every cell that ever
// gained a record through Append with the generation it last did, in
// domain then period order.
func (idx *shardIndex) encodeDirty(w *wire.Writer) {
	n := 0
	idx.eachDirty(0, func(DirtyCell, uint64) { n++ })
	w.Uvarint(uint64(n))
	idx.eachDirty(0, func(cell DirtyCell, at uint64) {
		w.String(string(cell.Domain))
		w.Int(int64(cell.Period))
		w.Uvarint(at)
	})
}

// decodeDirty reads what encodeDirty wrote. The shard's domain list, whose
// ranks index the journal in memory, follows later in the payload
// (alignDirty).
func decodeDirty(r *wire.Reader) map[DirtyCell]uint64 {
	n := r.Count()
	cells := make(map[DirtyCell]uint64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		cell := DirtyCell{dnscore.Name(r.String()), simtime.Period(r.Int())}
		if !cell.Period.Valid() {
			r.Fail("dirty cell period")
		}
		cells[cell] = r.Uvarint()
	}
	return cells
}

// alignDirty lays decoded cells out by their domain's rank in the shard's
// sorted list; a cell naming a domain the shard does not hold is a corrupt
// payload.
func alignDirty(domains []dnscore.Name, cells map[DirtyCell]uint64) ([]periodGens, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	dirty := make([]periodGens, len(domains))
	for cell, gen := range cells {
		i, ok := slices.BinarySearch(domains, cell.Domain)
		if !ok {
			return nil, fmt.Errorf("%w: dirty cell for %q, which the shard does not hold", ErrSnapshotState, cell.Domain)
		}
		dirty[i][cell.Period] = gen
	}
	return dirty, nil
}
