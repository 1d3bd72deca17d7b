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
