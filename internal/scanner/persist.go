package scanner

// Snapshot serialization for the durability layer (internal/wal): a frozen
// Dataset round-trips through EncodeSnapshot/DecodeSnapshot to exactly the
// state a warm-restarted daemon needs — per-shard sorted indexes, dirty-cell
// journals, quarantine journals, the scan-date roster, and the generation —
// so recovery resumes Append/DirtySince/report flows as if the process had
// never died.
//
// Certificates are stored once in a fingerprint-deduplicated table and
// re-interned through the dataset's pool on decode, so the restored pool
// gauges (retrodns_intern_strings, retrodns_cert_pool_size) match a live
// ingest of the same corpus. Each resident domain's window is written and
// read by the one window codec a segment entry uses (writeWindow,
// readWindow), under the snapshot's certificate table, so the snapshot,
// unspill and segment-read paths make the same checks, date order
// included. Records indexed under several registered domains are
// serialized per domain — the restored instances are distinct pointers,
// which every consumer tolerates (windows are per-domain and all
// cross-window counts are serialized explicitly).

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"

	"retrodns/internal/dnscore"
	"retrodns/internal/segment"
	"retrodns/internal/simtime"
	"retrodns/internal/wire"
)

// ErrSnapshotState reports a snapshot payload that decoded structurally but
// violates dataset invariants (wrong shard routing, a domain listed twice).
var ErrSnapshotState = errors.New("scanner: invalid snapshot state")

// ErrNotFrozen reports an EncodeSnapshot call on an unfrozen dataset.
var ErrNotFrozen = errors.New("scanner: dataset not frozen")

// snapshotMagic versions the dataset snapshot payload. V2 is emitted only
// when at least one shard is spilled: spilled shards serialize a reference
// to their sealed segment file instead of their record payloads, so the
// snapshot of an out-of-core corpus stays small and decoding it never
// materializes the spilled shards. A fully resident dataset always encodes
// as v1, byte-identical with the pre-spill format.
const (
	snapshotMagic   = "rds1"
	snapshotMagicV2 = "rds2"
)

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

// EncodeSnapshot serializes the frozen dataset to w. The writer receives a
// single contiguous payload; framing, checksums, and fsync discipline are
// the caller's (internal/wal's) concern.
func (d *Dataset) EncodeSnapshot(out io.Writer) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	view := d.view.Load()
	if view == nil {
		return ErrNotFrozen
	}

	spilledAny := false
	for _, s := range d.shards {
		if idx := s.idx.Load(); idx != nil && idx.spill != nil {
			spilledAny = true
			break
		}
	}

	var w wire.Writer
	if spilledAny {
		w.String(snapshotMagicV2)
	} else {
		w.String(snapshotMagic)
	}
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

	// Shared certificate table: walk resident shards in order, domains in
	// sorted order, records in window order, so the table layout is
	// deterministic. Spilled shards keep their certificates in their
	// segment's common blob and do not contribute.
	table := newCertTable(int(d.pool.certs.Size()))
	for _, s := range d.shards {
		idx := s.idx.Load()
		if idx.spill != nil {
			continue
		}
		for _, window := range idx.windows {
			for _, rec := range window {
				if rec.Cert != nil {
					table.add(rec.Cert)
				}
			}
		}
	}
	table.encode(&w)

	for _, s := range d.shards {
		s.mu.RLock()
		idx := s.idx.Load()
		if spilledAny {
			w.Bool(idx.spill != nil)
		}
		if idx.spill != nil {
			// Spilled shard: reference the sealed segment instead of the
			// payloads. Journals and the domain roster stay inline — they
			// are resident state the segment does not carry.
			w.String(idx.spill.file)
		}
		encodeQuar(&w, &s.quar)
		idx.encodeDirty(&w)
		w.Uvarint(uint64(idx.attach))
		w.Uvarint(uint64(len(idx.domains)))
		for i, domain := range idx.domains {
			w.String(string(domain))
			if idx.spill != nil {
				continue
			}
			writeWindow(&w, idx.windows[i], table)
		}
		s.mu.RUnlock()
	}

	_, err := out.Write(w.Bytes())
	return err
}

// DecodeSnapshot reconstructs a frozen dataset from an EncodeSnapshot
// payload. The input is assumed checksummed by the caller; decode still
// never panics and validates shard routing and window order, so a corrupt
// payload yields a typed error, not a poisoned dataset. A v2 snapshot
// (spilled shards) requires DecodeSnapshotSpill — without a segment store
// the references cannot be resolved.
func DecodeSnapshot(data []byte) (*Dataset, error) {
	return decodeSnapshot(data, nil)
}

// DecodeSnapshotSpill reconstructs a frozen dataset whose spilled shards
// resolve against the segment store in opts.Dir, and leaves the dataset
// configured with opts (so the budget keeps being enforced). Works on v1
// snapshots too: the dataset decodes fully resident and the budget is
// enforced before returning.
func DecodeSnapshotSpill(data []byte, opts SpillOptions) (*Dataset, error) {
	return decodeSnapshot(data, &opts)
}

func decodeSnapshot(data []byte, opts *SpillOptions) (*Dataset, error) {
	r := wire.NewReader(data)
	magic := r.String()
	v2 := magic == snapshotMagicV2
	if magic != snapshotMagic && !v2 {
		return nil, fmt.Errorf("%w: bad snapshot magic", wire.ErrMalformed)
	}
	var store *segment.Store
	if opts != nil {
		var err error
		store, err = segment.OpenStore(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpill, err)
		}
	}
	if v2 && store == nil {
		return nil, fmt.Errorf("%w: snapshot references spilled segments; decode with a spill dir", ErrSnapshotState)
	}
	nshards := int(r.Uvarint())
	if r.Err() != nil || nshards < 1 || nshards > maxShards {
		return nil, fmt.Errorf("%w: shard count", wire.ErrMalformed)
	}
	d := NewDatasetShards(nshards)
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

	certs := decodeCertTable(r)
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Re-intern through the pool: SAN strings and certificates dedup into
	// the same pools a live ingest would fill.
	for i, c := range certs {
		certs[i] = d.pool.Cert(c)
	}

	var domains []dnscore.Name
	for sid := 0; sid < nshards; sid++ {
		s := d.shards[sid]
		spilled := false
		if v2 {
			spilled = r.Bool()
		}
		var segFile string
		if spilled {
			segFile = r.String()
		}
		decodeQuar(r, &s.quar)
		cells := decodeDirty(r)
		attach := int(r.Uvarint())
		ndom := r.Count()
		if spilled {
			idx, err := decodeSpilledShard(r, d, store, opts.Mode, sid, nshards, segFile, attach, ndom)
			if err == nil {
				idx.dirty, err = alignDirty(idx.domains, cells)
			}
			if err != nil {
				return nil, err
			}
			s.byDomain = nil
			s.attach = attach
			s.idx.Store(idx)
			domains = append(domains, idx.domains...)
			continue
		}
		idx := &shardIndex{
			domains: make([]dnscore.Name, 0, ndom),
			windows: make([][]*Record, 0, ndom),
			attach:  attach,
		}
		for i := 0; i < ndom; i++ {
			if r.Err() != nil {
				return nil, r.Err()
			}
			idx.domains = append(idx.domains, dnscore.Name(r.String()))
			idx.windows = append(idx.windows, readWindow(r, certs, nil))
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if err := checkRoster(idx.domains, sid, nshards); err != nil {
			return nil, err
		}
		idx.pos = rankDomains(idx.domains)
		var err error
		if idx.dirty, err = alignDirty(idx.domains, cells); err != nil {
			return nil, err
		}
		s.byDomain = nil
		s.attach = attach
		s.idx.Store(idx)
		domains = append(domains, idx.domains...)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if len(domains) != domainCount {
		return nil, fmt.Errorf("%w: domain count %d != %d", ErrSnapshotState, len(domains), domainCount)
	}
	sort.Slice(domains, func(i, j int) bool { return domains[i] < domains[j] })
	d.view.Store(&datasetView{
		generation:  generation,
		domains:     domains,
		scanDates:   scanDates,
		periods:     periodsOf(scanDates),
		records:     records,
		domainCount: domainCount,
	})
	if opts != nil {
		// The decoded dataset keeps the spill configuration: the budget is
		// enforced now (a v1 snapshot under a tight budget spills here) and
		// on every subsequent Append. No other goroutine can hold d yet, so
		// the *Locked paths run unlocked.
		d.spill = &spillState{
			store:     store,
			budget:    opts.BudgetBytes,
			mode:      opts.Mode,
			lastTouch: make([]uint64, nshards),
		}
		if err := d.enforceSpillLocked(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// checkRoster holds a decoded shard's domain roster, resident or spilled,
// to what its index assumes: every domain routed to shard sid, and the list
// strictly ascending, so no domain is listed twice.
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

// decodeSpilledShard decodes a v2 spilled-shard section (domain roster
// only) and opens its segment. The roster must pass checkRoster and match
// the segment's sealed identity and entry count.
func decodeSpilledShard(r *wire.Reader, d *Dataset, store *segment.Store, mode segment.Mode, sid, nshards int, segFile string, attach, ndom int) (*shardIndex, error) {
	doms := make([]dnscore.Name, 0, ndom)
	for i := 0; i < ndom && r.Err() == nil; i++ {
		doms = append(doms, dnscore.Name(r.String()))
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if err := checkRoster(doms, sid, nshards); err != nil {
		return nil, err
	}
	seg, err := store.OpenName(segFile, mode)
	if err != nil {
		return nil, fmt.Errorf("%w: shard %d segment %s: %v", ErrSpill, sid, segFile, err)
	}
	if seg.Shard() != sid || seg.Count() != len(doms) {
		seg.Close()
		return nil, fmt.Errorf("%w: segment %s holds shard %d with %d domains, snapshot says shard %d with %d",
			ErrSpill, segFile, seg.Shard(), seg.Count(), sid, len(doms))
	}
	cr := wire.NewReader(seg.Common())
	certs := decodeCertTable(cr)
	if err := cr.Finish(); err != nil {
		seg.Close()
		return nil, fmt.Errorf("%w: segment %s cert table: %v", ErrSpill, segFile, err)
	}
	// Re-intern through the pool, same as the resident cert table.
	for i, c := range certs {
		certs[i] = d.pool.Cert(c)
	}
	return &shardIndex{domains: doms, attach: attach, spill: newSpillReader(seg, segFile, certs, &d.segmet)}, nil
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
