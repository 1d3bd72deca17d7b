package serve

import (
	"sync"
	"time"

	"retrodns/internal/obsv"
)

// TenantHeader names the request header carrying the tenant identity for
// per-tenant rate limiting. Requests without it share the "" bucket.
const TenantHeader = "X-Retrodns-Tenant"

// maxTenantBuckets bounds the tenant→bucket map so an adversary rotating
// tenant header values cannot grow it without bound; past the cap the
// stalest bucket (oldest last-use instant) is evicted. Evicting a bucket
// refills it on return, which only ever errs in the tenant's favor.
const maxTenantBuckets = 8192

// tokenBucket is a single token-bucket limiter: capacity `burst` tokens,
// refilled at `rate` tokens per second, one token per admitted request.
// A single mutex suffices — the critical section is a handful of float
// operations, far cheaper than the request it gates.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// newTokenBucket creates a limiter admitting rate requests per second
// with the given burst capacity. The bucket starts full. burst values
// below 1 are raised to 1 so a positive rate can ever admit anything.
func newTokenBucket(rate float64, burst int) *tokenBucket {
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &tokenBucket{rate: rate, burst: b, tokens: b}
}

// allow consumes one token if available at the given instant.
func (t *tokenBucket) allow(now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.last.IsZero() {
		t.tokens += now.Sub(t.last).Seconds() * t.rate
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
	}
	t.last = now
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}

// lastUsed reports the instant of the bucket's most recent allow call;
// the tenant limiter evicts the stalest bucket past capacity.
func (t *tokenBucket) lastUsed() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

// tenantLimiter gives every tenant (as named by TenantHeader) its own
// token bucket, so one tenant saturating its allowance never induces
// 429s for another. Buckets are created on first sight with the shared
// rate/burst and evicted stalest-first past maxTenantBuckets.
type tenantLimiter struct {
	rate  float64
	burst int

	mu      sync.Mutex
	buckets map[string]*tokenBucket
	// gauge is retrodns_serve_tenant_buckets, set under mu wherever the
	// map's size changes; nil when the engine runs uninstrumented.
	gauge *obsv.Gauge
}

func newTenantLimiter(rate float64, burst int) *tenantLimiter {
	return &tenantLimiter{
		rate:    rate,
		burst:   burst,
		buckets: make(map[string]*tokenBucket),
	}
}

// allow consumes one token from tenant's bucket, creating it on first
// sight. The map lock covers only the lookup/insert; the per-tenant
// bucket does its own locking, so hot tenants do not serialize behind
// cold ones.
func (l *tenantLimiter) allow(tenant string, now time.Time) bool {
	l.mu.Lock()
	b, ok := l.buckets[tenant]
	if !ok {
		if len(l.buckets) >= maxTenantBuckets {
			l.evictStalest()
		}
		b = newTokenBucket(l.rate, l.burst)
		l.buckets[tenant] = b
		l.gauge.Set(int64(len(l.buckets)))
	}
	l.mu.Unlock()
	return b.allow(now)
}

// evictStalest drops the bucket with the oldest last-use instant. Caller
// holds l.mu. O(n) over the map, but it only runs when the map is at the
// 8192-tenant cap and a brand-new tenant arrives — never on the repeat
// path a legitimate tenant exercises.
func (l *tenantLimiter) evictStalest() {
	var (
		victim string
		oldest time.Time
		found  bool
	)
	for tenant, b := range l.buckets {
		last := b.lastUsed()
		if !found || last.Before(oldest) {
			victim, oldest, found = tenant, last, true
		}
	}
	if found {
		delete(l.buckets, victim)
	}
}

// setGauge points the live-bucket gauge at g and sets it to the current
// count. A nil limiter (tenant limiting off) has nothing to report.
func (l *tenantLimiter) setGauge(g *obsv.Gauge) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gauge = g
	g.Set(int64(len(l.buckets)))
}

// tenants reports how many tenant buckets are live.
func (l *tenantLimiter) tenants() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}
