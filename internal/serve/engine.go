package serve

import (
	"sync/atomic"
	"time"

	"retrodns/internal/obsv"
)

// Serving-layer metric families, published into the shared obsv registry
// alongside the pipeline's. Only the latency family is wall-clock (the
// _seconds suffix convention the run report's canonical form strips).
const (
	MetricServeRequests       = "retrodns_serve_requests_total"
	MetricServeErrors         = "retrodns_serve_errors_total"
	MetricServeLatencySec     = "retrodns_serve_latency_seconds"
	MetricServeRateLimited    = "retrodns_serve_ratelimited_total"
	MetricServeGeneration     = "retrodns_serve_snapshot_generation"
	MetricServeSwaps          = "retrodns_serve_snapshot_swaps_total"
	MetricServePrerendered    = "retrodns_serve_prerendered_bodies"
	MetricServeBodyTemplates  = "retrodns_serve_body_templates"
	MetricServeBodiesRendered = "retrodns_serve_bodies_rendered"
	MetricServeTenants        = "retrodns_serve_tenant_buckets"
)

// endpoints are the fixed endpoint labels of the /v1 API.
var endpoints = []string{"domain", "shortlist", "funnel", "patterns", "healthz"}

// Options configures an Engine. The zero value serves with no rate
// limiting.
type Options struct {
	// LRUSize is ignored. bench/ still sets it; ROADMAP item 8 deletes it
	// together with that reader.
	LRUSize int
	// RatePerSec enables the global token-bucket request limiter;
	// <= 0 disables it.
	RatePerSec float64
	// Burst is the limiter's bucket capacity; values below 1 become 1.
	Burst int
	// TenantRatePerSec enables per-tenant token buckets keyed on the
	// X-Retrodns-Tenant header; <= 0 disables them. Each tenant gets its
	// own bucket at this rate, so one tenant at burst never 429s another.
	TenantRatePerSec float64
	// TenantBurst is each tenant bucket's capacity; values below 1
	// become 1.
	TenantBurst int
	// Now overrides the engine's clock (tests and benchmarks); nil means
	// time.Now.
	Now func() time.Time
}

// endpointMetrics are one endpoint's prefetched handles. Nil-safe: an
// engine without SetMetrics carries nil handles that no-op.
type endpointMetrics struct {
	requests *obsv.Counter
	latency  *obsv.Histogram
}

// Engine is the embeddable query engine: it holds the current Snapshot
// behind an atomic pointer (readers load it once per request and never
// lock; Publish stores a fully-built successor), serves every body from
// the snapshot, and enforces the global and per-tenant rate limits. All
// methods are safe for concurrent use.
type Engine struct {
	now     func() time.Time
	limiter *tokenBucket
	tenants *tenantLimiter

	snap  atomic.Pointer[Snapshot]
	swaps atomic.Uint64

	// requests counts admitted calls per endpoint independently of the
	// metrics registry, so Stats() works uninstrumented.
	requests map[string]*atomic.Int64

	reg          *obsv.Registry
	met          map[string]endpointMetrics
	ratelimited  *obsv.Counter
	generation   *obsv.Gauge
	swapsMet     *obsv.Counter
	prerenderedG *obsv.Gauge
	templatesG   *obsv.Gauge
	renderedG    *obsv.Gauge
}

// NewEngine creates an engine with no snapshot published yet; every
// endpoint but /v1/healthz answers 503 until the first Publish.
func NewEngine(opts Options) *Engine {
	e := &Engine{
		now:      opts.Now,
		requests: make(map[string]*atomic.Int64, len(endpoints)),
		met:      make(map[string]endpointMetrics, len(endpoints)),
	}
	if e.now == nil {
		e.now = time.Now
	}
	if opts.RatePerSec > 0 {
		e.limiter = newTokenBucket(opts.RatePerSec, opts.Burst)
	}
	if opts.TenantRatePerSec > 0 {
		e.tenants = newTenantLimiter(opts.TenantRatePerSec, opts.TenantBurst)
	}
	for _, ep := range endpoints {
		e.requests[ep] = &atomic.Int64{}
	}
	return e
}

// SetMetrics points the engine's instrumentation at a registry: request
// and latency series per endpoint, rate-limit refusals, snapshot
// generation/swap gauges, how the snapshot holds its bodies, and the
// live tenant-bucket count. Call before serving; a nil registry detaches.
func (e *Engine) SetMetrics(reg *obsv.Registry) {
	e.reg = reg
	e.met = make(map[string]endpointMetrics, len(endpoints))
	if reg == nil {
		e.ratelimited, e.swapsMet = nil, nil
		e.generation = nil
		e.prerenderedG, e.templatesG, e.renderedG = nil, nil, nil
		e.tenants.setGauge(nil)
		return
	}
	reg.SetHelp(MetricServeRequests, "API requests received, by endpoint.")
	reg.SetHelp(MetricServeErrors, "API error responses, by endpoint and status code.")
	reg.SetHelp(MetricServeLatencySec, "API request latency, by endpoint.")
	reg.SetHelp(MetricServeRateLimited, "Requests refused by the token-bucket rate limiters.")
	reg.SetHelp(MetricServeGeneration, "Dataset generation of the published snapshot.")
	reg.SetHelp(MetricServeSwaps, "Snapshot swaps published since the engine started.")
	reg.SetHelp(MetricServePrerendered, "Responses the published snapshot serves with no rendering on request.")
	reg.SetHelp(MetricServeBodyTemplates, "Distinct body tails the published snapshot's domain bodies share (one per category history).")
	reg.SetHelp(MetricServeBodiesRendered, "Domain bodies the published snapshot holds rendered whole (candidate, finding or escaped name).")
	reg.SetHelp(MetricServeTenants, "Live per-tenant rate-limit buckets.")
	for _, ep := range endpoints {
		e.met[ep] = endpointMetrics{
			requests: reg.Counter(MetricServeRequests, "endpoint", ep),
			latency:  reg.Histogram(MetricServeLatencySec, obsv.DurationBuckets, "endpoint", ep),
		}
	}
	e.ratelimited = reg.Counter(MetricServeRateLimited)
	e.generation = reg.Gauge(MetricServeGeneration)
	e.swapsMet = reg.Counter(MetricServeSwaps)
	e.prerenderedG = reg.Gauge(MetricServePrerendered)
	e.templatesG = reg.Gauge(MetricServeBodyTemplates)
	e.renderedG = reg.Gauge(MetricServeBodiesRendered)
	// Registered even with tenant limiting off (a nil e.tenants), so a
	// scrape reads 0.
	e.tenants.setGauge(reg.Gauge(MetricServeTenants))
}

// Publish atomically swaps the served snapshot. The snapshot must be
// fully built before the call; readers holding the predecessor keep
// serving it consistently until their request completes.
func (e *Engine) Publish(s *Snapshot) {
	e.snap.Store(s)
	e.swaps.Add(1)
	e.generation.Set(int64(s.Generation))
	e.swapsMet.Inc()
	e.prerenderedG.Set(int64(s.Prerendered()))
	e.templatesG.Set(int64(s.BodyTemplates()))
	e.renderedG.Set(int64(s.BodiesRendered()))
}

// Current returns the published snapshot, or nil before the first
// Publish. The snapshot is immutable; hold it as long as needed.
func (e *Engine) Current() *Snapshot {
	return e.snap.Load()
}

// Stats is a point-in-time view of the engine for run reports.
type Stats struct {
	// Generation is the published snapshot's generation, 0 if none.
	Generation uint64
	// Swaps counts Publish calls.
	Swaps uint64
	// Requests maps endpoint name to admitted request count.
	Requests map[string]int64
	// CacheHits, CacheMisses and CacheEvictions are always 0. bench/
	// still reads them; ROADMAP item 8 deletes them together with that
	// reader.
	CacheHits, CacheMisses, CacheEvictions int64
	// Prerendered is how many responses the published snapshot serves
	// without rendering; of its domain bodies, BodiesRendered are held whole
	// and the rest share BodyTemplates tails, so (domains - BodiesRendered) /
	// BodyTemplates is the intern ratio. Tenants is the live per-tenant
	// bucket count.
	Prerendered    int
	BodyTemplates  int
	BodiesRendered int
	Tenants        int
}

// Stats snapshots the engine's counters. It only reads: every gauge it
// mirrors is kept current where it changes.
func (e *Engine) Stats() Stats {
	st := Stats{
		Swaps:    e.swaps.Load(),
		Requests: make(map[string]int64, len(e.requests)),
	}
	if s := e.snap.Load(); s != nil {
		st.Generation = s.Generation
		st.Prerendered = s.Prerendered()
		st.BodyTemplates = s.BodyTemplates()
		st.BodiesRendered = s.BodiesRendered()
	}
	for ep, c := range e.requests {
		if n := c.Load(); n > 0 {
			st.Requests[ep] = n
		}
	}
	if e.tenants != nil {
		st.Tenants = e.tenants.tenants()
	}
	return st
}
