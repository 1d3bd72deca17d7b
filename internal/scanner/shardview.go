package scanner

import (
	"retrodns/internal/dnscore"
	"retrodns/internal/simtime"
)

// ShardView is a pinned read handle on one shard's immutable index
// snapshot. A caller that already knows which shard owns its domains — a
// shard-affine pipeline worker walking a whole shard — reads through the
// view and skips both the per-call domain hash and the atomic snapshot
// load that every Dataset.DomainRecords pays, and the N-way merged global
// domain list entirely.
//
// The view is pinned to the snapshot current when it was taken: Appends
// published afterwards are invisible to it, so every read through one view
// is mutually consistent. Views are cheap (one pointer) and safe for
// concurrent use.
type ShardView struct {
	idx *shardIndex
}

// ShardView returns a read view of shard sid (0 <= sid < Shards()). Before
// Freeze the view is empty — the per-shard index only exists on a frozen
// dataset, which is the only state the shard-affine pipeline reads in.
func (d *Dataset) ShardView(sid int) ShardView {
	return ShardView{idx: d.shards[sid].idx.Load()}
}

// ShardViewFor returns the view of the shard owning the domain.
func (d *Dataset) ShardViewFor(domain dnscore.Name) ShardView {
	return ShardView{idx: d.shardFor(domain).idx.Load()}
}

// ShardOf returns the shard that owns domain, held or not: the one whose
// view would list it.
func (d *Dataset) ShardOf(domain dnscore.Name) int {
	return shardIndexOf(domain, len(d.shards))
}

// ShardDomains returns shard sid's sorted domain list on a frozen dataset
// (nil before Freeze). The global Domains() list is exactly the sorted
// merge of the per-shard lists: each registered domain is owned by one
// shard, so the lists are disjoint and their union is the corpus. Treat
// the returned slice as read-only.
func (d *Dataset) ShardDomains(sid int) []dnscore.Name {
	return d.ShardView(sid).Domains()
}

// Domains returns the view's sorted domain list; treat it as read-only.
func (v ShardView) Domains() []dnscore.Name {
	if v.idx == nil {
		return nil
	}
	return v.idx.domains
}

// DirtyMask reports the periods (bit p for period p) in which the i-th
// domain of Domains() gained a record after generation since: the domain's
// row of the dirty journal DirtySince lists, as of the view's snapshot.
func (v ShardView) DirtyMask(i int, since uint64) uint16 {
	if v.idx == nil || v.idx.dirty == nil {
		return 0
	}
	return v.idx.dirty[i].since(since)
}

// DomainRecords returns the records of a domain owned by this shard within
// [from, to), in scan-date order — the per-shard counterpart of
// Dataset.DomainRecords with identical window semantics (zero bounds
// disable that side; the returned window is shared, treat it as
// read-only). Domains owned by other shards are simply absent.
func (v ShardView) DomainRecords(domain dnscore.Name, from, to simtime.Date) []*Record {
	if v.idx == nil {
		return nil
	}
	return windowRecords(v.idx.records(domain), from, to)
}

// WindowCursor is one reader's position in a view's shard: Seek to a domain
// by rank, then take its records period by period. It is the read path for a
// caller that walks the whole shard and keeps almost nothing — the uncached
// classify pass — and what it saves is per domain: on a resident shard the
// name lookup (Seek indexes the window array), on a spilled one the window's
// Records, which are decoded into storage the cursor owns and overwrites on
// the next Seek. Whatever must outlive that goes through Keep.
//
// A cursor is not safe for concurrent use; any number of cursors may read
// one view at once.
type WindowCursor struct {
	idx    *shardIndex
	at     int // the domain Seek positioned the cursor on, or -1
	window []*Record
	// slab and ptrs back window on a spilled shard (decodeWindowInto).
	slab []Record
	ptrs []*Record
}

// Cursor returns a cursor over the view's shard, positioned nowhere.
func (v ShardView) Cursor() *WindowCursor {
	return &WindowCursor{idx: v.idx, at: -1}
}

// Seek positions the cursor on the i-th domain of Domains(). On a spilled
// shard that is the domain's one segment read, and it invalidates every
// record the cursor handed out before that was not passed to Keep. Seeking
// the domain the cursor is on already does nothing, so a walk that reads
// a domain only when it needs to can Seek at each read.
func (c *WindowCursor) Seek(i int) {
	if i == c.at {
		return
	}
	c.at = i
	if sr := c.idx.spill; sr != nil {
		c.window = sr.read(c.idx.domains[i], c)
	} else {
		c.window = c.idx.windows[i]
	}
}

// Records returns the current domain's records within [from, to), as
// ShardView.DomainRecords would: read-only, and valid until the next Seek.
func (c *WindowCursor) Records(from, to simtime.Date) []*Record {
	return windowRecords(c.window, from, to)
}

// Keep makes records this cursor returned safe to hold past the next Seek:
// each pointer in recs is replaced, in place, by one to a copy the cursor
// will never overwrite. On a resident shard the records are the shard's own
// and nothing is copied.
func (c *WindowCursor) Keep(recs []*Record) {
	if len(recs) == 0 || c.idx.spill == nil {
		return
	}
	kept := make([]Record, len(recs))
	for i, r := range recs {
		kept[i] = *r
		recs[i] = &kept[i]
	}
}
