package core

import (
	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// depBlockSize is the batch granularity of fresh Deployment allocation: one
// heap allocation carves 64 structs. A retained transient classification
// pins at most one partially-used block (~9 KiB) until the block is dropped
// at the next shard-batch reset.
const depBlockSize = 64

// classifyArena is a per-worker allocator for the uncached
// build-and-classify hot path. Deployment maps, deployments, and
// classifications that the pipeline decides not to retain (every
// non-transient cell) recycle through typed free lists, so the next
// domain's build reuses both the structs and their grown slice capacities
// instead of re-allocating per record.
//
// Lifetime rules:
//   - One arena per worker goroutine; never shared (no locking).
//   - Only the uncached classify path recycles. The classify cache and the
//     stitching stage retain what they build across runs, so they pass a
//     nil arena (every method is nil-receiver-safe and degrades to plain
//     heap allocation).
//   - recycle(c) may only be called when nothing retains c, c.Map, or any
//     deployment inside it — i.e. after the worker has copied out
//     c.Category and only for non-transient classifications.
//   - reset() at each shard-batch boundary drops the free lists and the
//     current block, so recycled objects never outlive the shard that
//     produced them and stale record pointers beyond the recycled slices'
//     lengths are bounded by the shard's lifetime.
type classifyArena struct {
	maps     []*DeploymentMap
	deps     []*Deployment
	classes  []*Classification
	depBlock []Deployment
	partials []*Deployment
	// touched is prefetch's result. Nothing reads it; storing it keeps the
	// loads that produce it from being compiled away.
	touched uintptr
}

// prefetch loads the first cache line of every record in a window before
// the map build walks it. The records of an ingested corpus lie in scan
// order, so one domain's window is spread across the whole corpus and each
// record's first load misses. The build loop pays those misses one record
// at a time: each record's work waits on the deployment lookup of the one
// before. Here every load is independent of the last, so the window's
// misses are in flight together. A nil arena (the maps the cache keeps
// and stitching's, mostly a scan's worth of records extending a cell)
// skips the pass.
func (a *classifyArena) prefetch(records []*scanner.Record) {
	if a == nil {
		return
	}
	var sum uintptr
	for _, r := range records {
		sum += uintptr(r.ASN) + uintptr(len(r.Country))
	}
	a.touched = sum
}

// newMap returns a recycled (or fresh) deployment map initialized for the
// given cell.
func (a *classifyArena) newMap(domain dnscore.Name, period simtime.Period, totalScans int) *DeploymentMap {
	if a != nil {
		if n := len(a.maps); n > 0 {
			m := a.maps[n-1]
			a.maps = a.maps[:n-1]
			m.Domain, m.Period = domain, period
			m.Deployments = m.Deployments[:0]
			m.PresentScans, m.TotalScans = 0, totalScans
			return m
		}
	}
	return &DeploymentMap{Domain: domain, Period: period, TotalScans: totalScans}
}

// newDeployment returns a recycled, block-carved, or fresh deployment for
// the ASN.
func (a *classifyArena) newDeployment(asn ipmeta.ASN) *Deployment {
	if a == nil {
		return &Deployment{ASN: asn}
	}
	if n := len(a.deps); n > 0 {
		d := a.deps[n-1]
		a.deps = a.deps[:n-1]
		d.resetFor(asn)
		return d
	}
	if len(a.depBlock) == 0 {
		a.depBlock = make([]Deployment, depBlockSize)
	}
	d := &a.depBlock[0]
	a.depBlock = a.depBlock[1:]
	d.ASN = asn
	return d
}

// newClassification returns a recycled (or fresh) classification shell for
// the map, with member slices emptied but their capacities kept.
func (a *classifyArena) newClassification(m *DeploymentMap) *Classification {
	if a != nil {
		if n := len(a.classes); n > 0 {
			c := a.classes[n-1]
			a.classes = a.classes[:n-1]
			*c = Classification{
				Map:               m,
				Pattern:           PatternNone,
				Stables:           c.Stables[:0],
				Transients:        c.Transients[:0],
				TransientPatterns: c.TransientPatterns[:0],
			}
			return c
		}
	}
	return &Classification{Map: m, Pattern: PatternNone}
}

// takePartials lends the arena's partial-deployment scratch slice to one
// Classify call; putPartials returns it (possibly regrown).
func (a *classifyArena) takePartials() []*Deployment {
	if a == nil {
		return nil
	}
	p := a.partials
	a.partials = nil
	return p[:0]
}

func (a *classifyArena) putPartials(p []*Deployment) {
	if a != nil {
		a.partials = p
	}
}

// recycle returns a classification, its map, and the map's deployments to
// the free lists. The caller guarantees nothing retains any of them.
func (a *classifyArena) recycle(c *Classification) {
	if a == nil || c == nil {
		return
	}
	if m := c.Map; m != nil {
		a.deps = append(a.deps, m.Deployments...)
		a.maps = append(a.maps, m)
		c.Map = nil
	}
	a.classes = append(a.classes, c)
}

// reset drops everything at a shard-batch boundary (see lifetime rules).
func (a *classifyArena) reset() {
	if a == nil {
		return
	}
	a.maps, a.deps, a.classes, a.depBlock, a.partials = nil, nil, nil, nil, nil
}
