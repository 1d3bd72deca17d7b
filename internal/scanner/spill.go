package scanner

// The cold-shard spill layer: the out-of-core half of the corpus. Under a
// configured memory budget, whole frozen shards are sealed into immutable
// segment files (internal/segment) and their in-memory record payloads
// dropped; the shard keeps its sorted domain list, attachment count,
// dirty journal, and quarantine journal resident, so every index-level
// read (Domains, DirtySince, counts, reports) is untouched. Record windows
// of a spilled shard are decoded back out of the segment on demand, through
// the same binary codec that wrote them and the same canonical pooled
// certificates — so DomainRecords, the pipeline, and every derived report
// are byte-identical for any mix of resident and spilled shards.
//
// Residency moves in whole shards, both directions: enforcement seals the
// coldest resident shards until the model-based resident estimate fits the
// budget, and any Append that routes records into a spilled shard unspills
// it first (segments are immutable; a shard must be resident to mutate).
// "Coldest" is the shard least recently written — reads deliberately do not
// touch the clock, so residency decisions are a pure function of the ingest
// sequence and runs are reproducible.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"retrodns/internal/dnscore"
	"retrodns/internal/obsv"
	"retrodns/internal/segment"
	"retrodns/internal/wire"
	"retrodns/internal/x509lite"
)

// ErrSpill reports a spill-store failure: a segment that cannot be sealed,
// opened, or replayed back into a resident shard.
var ErrSpill = errors.New("scanner: spill store failure")

// estSpilledPerAttach is the model-based resident bytes reclaimed per
// record attachment when a shard spills: the record struct plus its index
// slot (the domain entries and certificate pool stay resident by design).
const estSpilledPerAttach = estRecordBytes + estAttachBytes

// estEntryBytesPerDomain and estEntryBytesPerAttach size a shard's segment
// entries ahead of encoding them: on the synthetic corpora an entry's key
// and counts come to some 21 bytes and each record of its window to some
// 22, so these overshoot by a few percent. An underestimate costs a regrow
// of the writer's buffer.
// estCertImageBytes is a certificate's encoding in a segment's table.
const (
	estEntryBytesPerDomain = 24
	estEntryBytesPerAttach = 24
	estCertImageBytes      = 128
)

// SnapshotBytesHint estimates AppendSnapshot's payload from the counts it
// encodes, for a caller sizing the buffer of a first snapshot that has no
// earlier one to go by: each resident shard's image as shardSegment sizes
// its writer, a certificate per pooled one in the shards' tables, and
// every shard's roster of names.
func (d *Dataset) SnapshotBytesHint() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := int(d.pool.Stats().Certs) * estCertImageBytes
	for _, s := range d.shards {
		idx := s.idx.Load()
		if idx == nil {
			continue
		}
		if idx.spill == nil {
			n += len(idx.domains)*estEntryBytesPerDomain + idx.attach*estEntryBytesPerAttach
		}
		for _, domain := range idx.domains {
			n += len(domain) + 1
		}
	}
	return n
}

// SpillOptions configures the out-of-core layer.
type SpillOptions struct {
	// Dir is the segment store directory (required).
	Dir string
	// BudgetBytes bounds the model-based resident corpus estimate
	// (EstimatedBytes minus spilled payloads). Negative means unlimited
	// (spill configured but idle); zero means spill every non-empty shard.
	BudgetBytes int64
	// Mode selects how sealed segments are read back (auto/stream).
	Mode segment.Mode
}

// SpillFlags turns the CLIs' -spill-dir, -mem-budget-mb and -spill-read-mode
// values into SpillOptions, nil when dir is "": a budget < 0 is unlimited, 0
// spills every frozen shard, > 0 is a ceiling in MiB. A bad read mode is
// refused with or without a dir.
func SpillFlags(dir string, memBudgetMB int, readMode string) (*SpillOptions, error) {
	mode, err := segment.ParseMode(readMode)
	if err != nil {
		return nil, err
	}
	if dir == "" && memBudgetMB >= 0 {
		return nil, errors.New("-mem-budget-mb requires -spill-dir")
	}
	if dir == "" {
		return nil, nil
	}
	return &SpillOptions{Dir: dir, BudgetBytes: max(-1, int64(memBudgetMB)<<20), Mode: mode}, nil
}

// spillState is the dataset's spill configuration and residency clock.
// Guarded by d.mu.
type spillState struct {
	store  *segment.Store
	budget int64
	mode   segment.Mode
	// lastTouch records, per shard, the clock tick of the last ingest that
	// routed records into it; clock advances once per ingest call.
	lastTouch []uint64
	clock     uint64
}

// segmentMetrics is the spill layer's counter set, swapped atomically by
// SetMetrics so lock-free readers always see the current handles (nil
// handles no-op, as everywhere in obsv).
type segmentMetrics struct {
	seals       *obsv.Counter
	sealedBytes *obsv.Counter
	unspills    *obsv.Counter
	reads       *obsv.Counter
	readBytes   *obsv.Counter
	readErrors  *obsv.Counter
}

// spillReader serves one spilled shard's record windows off its segment.
// Attached to the shard's immutable index snapshot; safe for concurrent
// use. The single-entry memo covers the pipeline's access pattern — a
// shard-affine worker asks for the same domain's window once per period
// before moving to the next domain.
//
// Nobody closes a spillReader. The index snapshot holding it stays readable
// for as long as a ShardView pins it, well after the shard unspilled or
// resealed, so the segment's mapping and descriptor are released by a
// finalizer once no index references the reader any more.
type spillReader struct {
	seg   *segment.Reader
	file  string
	certs []*x509lite.Certificate
	met   *atomic.Pointer[segmentMetrics]

	mu      sync.Mutex
	memoOK  bool
	memoKey dnscore.Name
	memoVal []*Record
}

// newSpillReader wraps an open segment whose common blob decoded to certs
// (the canonical pooled instances) and takes over closing it.
func newSpillReader(seg *segment.Reader, file string, certs []*x509lite.Certificate, met *atomic.Pointer[segmentMetrics]) *spillReader {
	sr := &spillReader{seg: seg, file: file, certs: certs, met: met}
	runtime.SetFinalizer(sr, func(sr *spillReader) { sr.seg.Close() })
	return sr
}

// records returns the full date-sorted window for domain, decoding it from
// the segment into records of its own (see read).
func (sr *spillReader) records(domain dnscore.Name) []*Record {
	sr.mu.Lock()
	if sr.memoOK && sr.memoKey == domain {
		v := sr.memoVal
		sr.mu.Unlock()
		return v
	}
	sr.mu.Unlock()
	window := sr.read(domain, nil)
	if window != nil {
		sr.mu.Lock()
		sr.memoOK, sr.memoKey, sr.memoVal = true, domain, window
		sr.mu.Unlock()
	}
	return window
}

// read is the one segment read: domain's window decoded into c's storage,
// or into records of its own when c is nil. Window reads have no error
// return, so a damaged entry (the segment was CRC-verified at open, so this
// means bit rot after open or a codec bug) counts
// retrodns_segment_read_errors_total and reads as an absent domain.
func (sr *spillReader) read(domain dnscore.Name, c *WindowCursor) []*Record {
	m := sr.met.Load()
	value, ok, err := sr.seg.Get(string(domain))
	if err != nil {
		m.readErrors.Inc()
		return nil
	}
	if !ok {
		return nil
	}
	m.reads.Inc()
	m.readBytes.Add(int64(len(value)))
	window, err := decodeWindowInto(value, sr.certs, c)
	// value may alias the mapping the finalizer unmaps, and the caller's
	// index can be the last reference to sr.
	runtime.KeepAlive(sr)
	if err != nil {
		m.readErrors.Inc()
		return nil
	}
	return window
}

// encodeWindow appends one domain's record window to dst as a segment
// entry value (writeWindow).
func encodeWindow(dst []byte, window []*Record, table *certTable) []byte {
	w := wire.NewWriter(dst)
	writeWindow(&w, window, table)
	return w.Bytes()
}

// writeWindow is the one window encoding, a segment entry's value: a count
// followed by the records, certificates as indexes into the shard's table.
func writeWindow(w *wire.Writer, window []*Record, table *certTable) {
	w.Uvarint(uint64(len(window)))
	for _, rec := range window {
		certIdx := uint64(0)
		if rec.Cert != nil {
			certIdx = table.add(rec.Cert) + 1
		}
		encodeRecord(w, rec, certIdx)
	}
}

// decodeWindow is the inverse of encodeWindow, resolving certificates
// against the shard's canonical pooled instances. The records come out of
// slabs and share what they repeat (decodeRecords), so a window costs a
// handful of allocations however many records it holds; a malformed value
// yields wire.ErrMalformed and no records, never part of a window.
func decodeWindow(value []byte, certs []*x509lite.Certificate) ([]*Record, error) {
	return decodeWindowInto(value, certs, nil)
}

// decodeWindowInto is decodeWindow into the storage of c, overwriting the
// window c decoded before; a nil c gives the window records of its own.
func decodeWindowInto(value []byte, certs []*x509lite.Certificate, c *WindowCursor) ([]*Record, error) {
	r := wire.NewReader(value)
	out := readWindow(r, certs, c)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// readWindow reads what writeWindow wrote at r's cursor, in one pass over
// its records, into c's storage or, with a nil c, into records of its own.
// A window out of date order is refused like any malformed one
// (decodeRecords); on a refusal the caller drops the result whole.
func readWindow(r *wire.Reader, certs []*x509lite.Certificate, c *WindowCursor) []*Record {
	n := r.Count()
	var out []*Record
	var slab []Record
	var own []uint16
	ports := &own
	if c == nil {
		out = make([]*Record, 0, n)
	} else {
		if cap(c.slab) < n {
			grown := max(n, 2*cap(c.slab))
			c.slab, c.ptrs = make([]Record, grown), make([]*Record, 0, grown)
		}
		out, slab = c.ptrs[:0], c.slab[:n]
		c.ports, ports = c.ports[:0], &c.ports
	}
	return decodeRecords(r, certs, n, out, slab, ports)
}

// ConfigureSpill attaches (or reconfigures) the out-of-core layer: opens
// the segment store and records the budget. On a frozen dataset the budget
// is enforced immediately — cold shards spill before this returns; on an
// unfrozen one enforcement starts at Freeze. Call under no other dataset
// operation.
func (d *Dataset) ConfigureSpill(o SpillOptions) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	store, err := segment.OpenStore(o.Dir)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSpill, err)
	}
	d.spill = &spillState{
		store:     store,
		budget:    o.BudgetBytes,
		mode:      o.Mode,
		lastTouch: make([]uint64, len(d.shards)),
	}
	if d.view.Load() == nil {
		return nil
	}
	err = d.enforceSpillLocked()
	d.publishSizeLocked()
	return err
}

// SpilledShards returns the number of currently spilled shards. Lock-free.
func (d *Dataset) SpilledShards() int {
	n := 0
	for _, s := range d.shards {
		if idx := s.idx.Load(); idx != nil && idx.spill != nil {
			n++
		}
	}
	return n
}

// SpillStats returns the model-based (resident, spilled) byte split of the
// corpus estimate — the two gauges' current values.
func (d *Dataset) SpillStats() (resident, spilled int64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	total := d.estimatedBytesLocked(d.pool.Stats())
	spilled = d.spilledBytesLocked()
	return total - spilled, spilled
}

// spilledBytesLocked is the model-based payload estimate currently held on
// disk instead of in memory. Caller holds d.mu.
func (d *Dataset) spilledBytesLocked() int64 {
	var spilled int64
	for _, s := range d.shards {
		if idx := s.idx.Load(); idx != nil && idx.spill != nil {
			spilled += int64(idx.attach) * estSpilledPerAttach
		}
	}
	return spilled
}

// enforceSpillLocked seals coldest-first resident shards until the
// resident estimate fits the budget (or nothing spillable remains — with a
// zero budget that is the terminating case: every non-empty shard ends up
// on disk). One set of image buffers serves every seal of the pass. Caller
// holds d.mu; the dataset is frozen.
func (d *Dataset) enforceSpillLocked() error {
	sp := d.spill
	if sp == nil || sp.budget < 0 || d.view.Load() == nil {
		return nil
	}
	st := d.pool.Stats()
	var b imageBuffers
	for {
		resident := d.estimatedBytesLocked(st) - d.spilledBytesLocked()
		if resident <= sp.budget {
			return nil
		}
		sid := d.coldestResidentLocked()
		if sid < 0 {
			return nil
		}
		if err := d.sealShardLocked(&b, sid); err != nil {
			return err
		}
	}
}

// coldestResidentLocked picks the non-empty resident shard with the oldest
// write touch (ties break to the lowest shard id), or -1 if none.
func (d *Dataset) coldestResidentLocked() int {
	best := -1
	var bestTouch uint64
	for sid, s := range d.shards {
		idx := s.idx.Load()
		if idx == nil || idx.spill != nil || len(idx.domains) == 0 {
			continue
		}
		touch := d.spill.lastTouch[sid]
		if best < 0 || touch < bestTouch {
			best, bestTouch = sid, touch
		}
	}
	return best
}

// imageBuffers is what rendering one shard's segment image after another
// reuses: the segment writer with its entries buffer, the window value
// buffer and the certificate table's encoding.
type imageBuffers struct {
	seg   segment.Writer
	value []byte
	certs wire.Writer
}

// shardSegment renders a resident shard into b.seg as a segment at
// generation gen: one entry per domain of its roster, holding the domain's
// window (encodeWindow), and the shard's certificate table as the common
// blob. It returns the table's certificates too, the canonical pooled
// instances the windows hold. A sealed spilled shard and a resident shard
// inline in a snapshot are both this image.
func shardSegment(b *imageBuffers, sid int, gen uint64, idx *shardIndex) []*x509lite.Certificate {
	table := newCertTable(len(idx.domains))
	w := &b.seg
	w.Reset(sid, gen)
	w.Grow(len(idx.domains)*estEntryBytesPerDomain + idx.attach*estEntryBytesPerAttach)
	for i, domain := range idx.domains {
		// Add copies the value, so one buffer serves every entry.
		b.value = encodeWindow(b.value[:0], idx.windows[i], table)
		// A key out of order latches in w and fails its rendering.
		_ = w.Add(string(domain), b.value)
	}
	b.certs = wire.NewWriter(b.certs.Bytes()[:0])
	table.encode(&b.certs)
	w.SetCommon(b.certs.Bytes())
	return table.certs
}

// segmentCerts checks that seg is shard sid's segment over roster — sealed
// for that shard, one entry per roster domain — and returns its decoded
// certificate table, for the pool to take: held by nothing else, the
// certificates join the pool as they are.
func segmentCerts(seg *segment.Reader, sid int, roster []dnscore.Name) ([]*x509lite.Certificate, error) {
	if seg.Shard() != sid || seg.Count() != len(roster) {
		return nil, fmt.Errorf("segment holds shard %d with %d domains, roster says shard %d with %d",
			seg.Shard(), seg.Count(), sid, len(roster))
	}
	r := wire.NewReader(seg.Common())
	certs := decodeCertTable(r, nil)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("cert table: %w", err)
	}
	return certs, nil
}

// segmentWindows decodes every window of seg, whose keys must be exactly
// roster, in order: the resident windows of the shard the segment holds.
func segmentWindows(seg *segment.Reader, roster []dnscore.Name, certs []*x509lite.Certificate) ([][]*Record, error) {
	windows := make([][]*Record, 0, len(roster))
	err := seg.Walk(func(key, value []byte) error {
		if i := len(windows); i >= len(roster) || string(roster[i]) != string(key) {
			return fmt.Errorf("segment domain %q does not match the roster", key)
		}
		window, err := decodeWindow(value, certs)
		if err != nil {
			return fmt.Errorf("window %q: %w", key, err)
		}
		windows = append(windows, window)
		return nil
	})
	if err == nil && len(windows) != len(roster) {
		err = fmt.Errorf("segment holds %d domains, roster %d", len(windows), len(roster))
	}
	return windows, err
}

// sealShardLocked writes shard sid's segment (shardSegment, rendered in b)
// at the current generation, publishes a payload-free index snapshot
// backed by a segment reader, and lets the resident windows go. Caller
// holds d.mu; the shard is frozen and resident.
func (d *Dataset) sealShardLocked(b *imageBuffers, sid int) error {
	s := d.shards[sid]
	idx := s.idx.Load()
	if idx == nil || idx.spill != nil || len(idx.domains) == 0 {
		return nil
	}
	certs := shardSegment(b, sid, d.view.Load().generation, idx)
	info, err := d.spill.store.Seal(&b.seg)
	if err != nil {
		return fmt.Errorf("%w: seal shard %d: %v", ErrSpill, sid, err)
	}
	r, err := d.spill.store.OpenSeg(info, d.spill.mode)
	if err != nil {
		return fmt.Errorf("%w: reopen sealed shard %d: %v", ErrSpill, sid, err)
	}
	// certs are the canonical pooled instances the resident index held;
	// reads hand them back by pointer, so a spilled shard's records carry
	// the very same certificates.
	sr := newSpillReader(r, info.File, certs, &d.segmet)
	next := &shardIndex{domains: idx.domains, dirty: idx.dirty, attach: idx.attach, spill: sr}
	s.mu.Lock()
	s.idx.Store(next)
	s.mu.Unlock()
	m := d.segmet.Load()
	m.seals.Inc()
	m.sealedBytes.Add(info.Bytes)
	return nil
}

// unspillShardLocked replays shard sid's segment back into a resident
// index snapshot (segmentWindows). The reader is left open: index
// snapshots published earlier may still be pinned by a ShardView and keep
// reading through it. Caller holds d.mu.
func (d *Dataset) unspillShardLocked(sid int) error {
	s := d.shards[sid]
	idx := s.idx.Load()
	if idx == nil || idx.spill == nil {
		return nil
	}
	windows, err := segmentWindows(idx.spill.seg, idx.domains, idx.spill.certs)
	if err != nil {
		return fmt.Errorf("%w: replay shard %d: %w", ErrSpill, sid, err)
	}
	next := &shardIndex{
		domains: idx.domains, pos: rankDomains(idx.domains), windows: windows,
		dirty: idx.dirty, attach: idx.attach,
	}
	s.mu.Lock()
	s.idx.Store(next)
	s.mu.Unlock()
	d.segmet.Load().unspills.Inc()
	return nil
}

// unspillTouchedLocked advances the residency clock for this ingest and
// makes every shard the accepted records route into resident, before any
// state changes. Caller holds d.mu; the dataset is frozen (append mode).
func (d *Dataset) unspillTouchedLocked(records []*Record, gates []uint8) error {
	sp := d.spill
	if sp == nil {
		return nil
	}
	sp.clock++
	nsh := len(d.shards)
	touched := make([]bool, nsh)
	for i, r := range records {
		if gates[i] != 0 {
			continue
		}
		for _, san := range r.Cert.SANs {
			if apex := san.RegisteredDomain(); apex != "" {
				touched[shardIndexOf(apex, nsh)] = true
			}
		}
	}
	for sid, t := range touched {
		if !t {
			continue
		}
		sp.lastTouch[sid] = sp.clock
		if err := d.unspillShardLocked(sid); err != nil {
			return err
		}
	}
	return nil
}
