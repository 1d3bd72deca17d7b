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
	"retrodns/internal/x509lite"
)

// ErrSpill reports a spill-store failure: a segment that cannot be sealed,
// opened, or replayed back into a resident shard.
var ErrSpill = errors.New("scanner: spill store failure")

// estSpilledPerAttach is the model-based resident bytes reclaimed per
// record attachment when a shard spills: the record struct plus its index
// slot (the domain entries and intern pools stay resident by design).
const estSpilledPerAttach = estRecordBytes + estAttachBytes

// SpillOptions configures the out-of-core layer.
type SpillOptions struct {
	// Dir is the segment store directory (required).
	Dir string
	// BudgetBytes bounds the model-based resident corpus estimate
	// (EstimatedBytes minus spilled payloads). Negative means unlimited
	// (spill configured but idle); zero means spill every non-empty shard.
	BudgetBytes int64
	// Mode selects how sealed segments are read back (auto/mmap/stream).
	Mode segment.Mode
}

// SpillFlags turns the CLIs' -spill-dir, -mem-budget-mb and -spill-read-mode
// values into SpillOptions, nil when dir is "": a budget < 0 is unlimited, 0
// spills every frozen shard, > 0 is a ceiling in MiB.
func SpillFlags(dir string, memBudgetMB int, readMode string) (*SpillOptions, error) {
	if dir == "" && memBudgetMB >= 0 {
		return nil, errors.New("-mem-budget-mb requires -spill-dir")
	}
	if dir == "" {
		return nil, nil
	}
	mode, err := segment.ParseMode(readMode)
	if err != nil {
		return nil, err
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

// encodeWindow serializes one domain's record window as a segment entry
// value: a count followed by the records, certificates as indexes into the
// shard's table.
func encodeWindow(window []*Record, table *certTable) []byte {
	var w BinWriter
	w.Uvarint(uint64(len(window)))
	for _, rec := range window {
		certIdx := uint64(0)
		if rec.Cert != nil {
			certIdx = table.add(rec.Cert) + 1
		}
		encodeRecord(&w, rec, certIdx)
	}
	return w.Bytes()
}

// decodeWindow is the inverse of encodeWindow, resolving certificates
// against the shard's canonical pooled instances. The records come out of
// slabs and share what they repeat (decodeRecords), so a window costs a
// handful of allocations however many records it holds; a malformed value
// yields ErrCodec and no records, never part of a window.
func decodeWindow(value []byte, certs []*x509lite.Certificate) ([]*Record, error) {
	return decodeWindowInto(value, certs, nil)
}

// decodeWindowInto is decodeWindow into the storage of c, overwriting the
// window c decoded before; a nil c gives the window records of its own.
func decodeWindowInto(value []byte, certs []*x509lite.Certificate, c *WindowCursor) ([]*Record, error) {
	r := NewBinReader(value)
	n := r.Count()
	var out []*Record
	var slab []Record
	if c == nil {
		out = make([]*Record, 0, n)
	} else {
		if cap(c.slab) < n {
			grown := max(n, 2*cap(c.slab))
			c.slab, c.ptrs = make([]Record, grown), make([]*Record, 0, grown)
		}
		out, slab = c.ptrs[:0], c.slab[:n]
	}
	out = decodeRecords(r, certs, n, out, slab)
	if r.err != nil {
		return nil, r.err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in window", ErrCodec, r.Len())
	}
	return out, nil
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
// on disk). Caller holds d.mu; the dataset is frozen.
func (d *Dataset) enforceSpillLocked() error {
	sp := d.spill
	if sp == nil || sp.budget < 0 || d.view.Load() == nil {
		return nil
	}
	st := d.pool.Stats()
	for {
		resident := d.estimatedBytesLocked(st) - d.spilledBytesLocked()
		if resident <= sp.budget {
			return nil
		}
		sid := d.coldestResidentLocked()
		if sid < 0 {
			return nil
		}
		if err := d.sealShardLocked(sid); err != nil {
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

// sealShardLocked writes shard sid's record payloads into a segment at the
// current generation, publishes a payload-free index snapshot backed by a
// segment reader, and lets the resident windows go. Caller holds d.mu; the
// shard is frozen and resident.
func (d *Dataset) sealShardLocked(sid int) error {
	s := d.shards[sid]
	idx := s.idx.Load()
	if idx == nil || idx.spill != nil || len(idx.domains) == 0 {
		return nil
	}
	gen := d.view.Load().generation
	table := newCertTable(0)
	w := segment.NewWriter(sid, gen)
	for i, domain := range idx.domains {
		if err := w.Add(string(domain), encodeWindow(idx.windows[i], table)); err != nil {
			return fmt.Errorf("%w: seal shard %d: %v", ErrSpill, sid, err)
		}
	}
	var cw BinWriter
	table.encode(&cw)
	w.SetCommon(cw.Bytes())
	info, err := d.spill.store.Seal(w)
	if err != nil {
		return fmt.Errorf("%w: seal shard %d: %v", ErrSpill, sid, err)
	}
	r, err := d.spill.store.OpenSeg(info, d.spill.mode)
	if err != nil {
		return fmt.Errorf("%w: reopen sealed shard %d: %v", ErrSpill, sid, err)
	}
	// table.certs are the canonical pooled instances the resident index
	// held; reads hand them back by pointer, so a spilled shard's records
	// carry the very same certificates.
	sr := newSpillReader(r, info.File, table.certs, &d.segmet)
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
// index snapshot. The reader is left open: index snapshots published
// earlier may still be pinned by a ShardView and keep reading through it.
// Caller holds d.mu.
func (d *Dataset) unspillShardLocked(sid int) error {
	s := d.shards[sid]
	idx := s.idx.Load()
	if idx == nil || idx.spill == nil {
		return nil
	}
	sr := idx.spill
	windows := make([][]*Record, 0, len(idx.domains))
	err := sr.seg.Walk(func(key string, value []byte) error {
		if i := len(windows); i >= len(idx.domains) || string(idx.domains[i]) != key {
			return fmt.Errorf("%w: segment domain %q does not match shard %d index", ErrSpill, key, sid)
		}
		window, err := decodeWindow(value, sr.certs)
		if err != nil {
			return fmt.Errorf("%w: replay %q: %v", ErrSpill, key, err)
		}
		windows = append(windows, window)
		return nil
	})
	if err == nil && len(windows) != len(idx.domains) {
		err = fmt.Errorf("%w: segment for shard %d holds %d domains, index %d", ErrSpill, sid, len(windows), len(idx.domains))
	}
	if err != nil {
		if errors.Is(err, ErrSpill) {
			return err
		}
		return fmt.Errorf("%w: %v", ErrSpill, err)
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
