package x509lite

import (
	"sync"
	"sync/atomic"

	"retrodns/internal/dnscore"
)

// Pool deduplicates certificates by Fingerprint. Four years of weekly
// scans observe the same certificate tens of thousands of times — once
// per (IP, scan) — and a feed that parses its input allocates a fresh
// Certificate for every observation. Interning through the pool collapses
// all of them onto one canonical instance, so the corpus stores each
// distinct certificate exactly once and pointer comparisons on certs
// become identity comparisons.
//
// The identity key is the already-memoized Fingerprint (SHA-256 over the
// canonical encoding plus signature), so two certificates intern to the
// same instance iff they are byte-identical — re-issued certificates with
// fresh signatures stay distinct, exactly as the detection method needs.
//
// The pool is safe for concurrent use and lives as long as its owner
// (typically a scanner.Dataset): entries are never evicted, so its size
// is bounded by the number of distinct certificates in the feed, not by
// the number of observations.
type Pool struct {
	// InternName, when set, canonicalizes the SAN strings of a
	// certificate on first insertion (typically through a shared string
	// pool, so SANs repeated across certificate generations share
	// backing bytes). It runs under the stripe lock; owned reports that
	// the name's bytes are the pool's to keep (an adopted certificate's),
	// so a string pool need not copy them. On Intern the pool keeps its
	// own copy of the certificate carrying the interned names: the
	// certificate handed to Intern is never written, so a feed may hand
	// one instance to several pools at once. On Adopt the certificate
	// itself takes the interned names.
	InternName func(name dnscore.Name, owned bool) dnscore.Name

	stripes [certPoolStripes]certPoolStripe
	size    atomic.Int64
}

// certPoolStripes spreads the pool over independent locks so parallel
// ingest shards do not serialize on one mutex. Must be a power of two.
const certPoolStripes = 32

type certPoolStripe struct {
	mu sync.RWMutex
	m  map[Fingerprint]*Certificate
	_  [64 - 32]byte // a cache line of its own: parallel workers lock neighbours
}

// NewPool returns an empty certificate pool.
func NewPool() *Pool {
	p := &Pool{}
	for i := range p.stripes {
		p.stripes[i].m = make(map[Fingerprint]*Certificate)
	}
	return p
}

// Reserve sizes the pool for about n distinct certificates at once, so a
// bulk load's first wide scan does not grow the stripes by doubling. A
// stripe that already holds certificates is left as it is.
func (p *Pool) Reserve(n int) {
	if p == nil {
		return
	}
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		if len(st.m) == 0 {
			st.m = make(map[Fingerprint]*Certificate, n/certPoolStripes)
		}
		st.mu.Unlock()
	}
}

// Intern returns the pool's canonical instance for c. A nil pool or
// certificate passes through unchanged. A new fingerprint inserts c itself,
// or — when InternName is set — a copy of c whose SANs went through
// InternName; c is only ever read.
func (p *Pool) Intern(c *Certificate) *Certificate { return p.intern(c, false) }

// Adopt is Intern for a certificate the caller hands over: one it decoded
// and holds no other reference to, such as a restored segment's
// certificate table. A new fingerprint inserts c itself, its SANs
// canonicalized in place, so a restore pays no second copy of what it
// decoded. c must not be reachable by another goroutine or pool.
func (p *Pool) Adopt(c *Certificate) *Certificate { return p.intern(c, true) }

func (p *Pool) intern(c *Certificate, owned bool) *Certificate {
	if p == nil || c == nil {
		return c
	}
	fp := c.Fingerprint()
	st := &p.stripes[fp[0]&(certPoolStripes-1)]
	st.mu.RLock()
	got := st.m[fp]
	st.mu.RUnlock()
	if got != nil {
		return got
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if got := st.m[fp]; got != nil {
		return got
	}
	if p.InternName != nil {
		own := c
		if !owned {
			own = c.Clone()
			own.fp.Store(c.fp.Load())
		}
		for i, san := range own.SANs {
			own.SANs[i] = p.InternName(san, owned)
			if san == own.Subject {
				own.Subject = own.SANs[i]
			}
		}
		c = own
	}
	st.m[fp] = c
	p.size.Add(1)
	return c
}

// Size returns the number of distinct certificates interned.
func (p *Pool) Size() int64 {
	if p == nil {
		return 0
	}
	return p.size.Load()
}
