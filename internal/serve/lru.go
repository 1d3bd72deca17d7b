package serve

import (
	"strconv"
	"sync"
	"sync/atomic"

	"retrodns/internal/obsv"
)

// lruShardCount is the fixed shard fan-out of the rendered-response
// cache. Sixteen shards keep the per-shard critical section (a map
// lookup plus a few pointer swaps) uncontended at request rates far past
// what one mutex sustains, while staying small enough that per-shard
// gauges remain a readable metric family.
const lruShardCount = 16

// shardedLRU is the bounded cache of rendered JSON responses, sharded by
// key hash: each shard is an independent mutex + map + intrusive recency
// list, so concurrent requests for different keys almost never touch the
// same lock. Keys embed the snapshot generation, so a swap never serves
// a stale body; Publish additionally calls purge so superseded bodies
// stop occupying capacity the moment a new generation lands. Hit/miss/
// eviction accounting is plain atomics — stats readers never take a
// shard lock, which keeps metric export off the request path's lock
// graph entirely.
type shardedLRU struct {
	perShard int // per-shard entry bound; <= 0 disables the cache
	shards   [lruShardCount]lruShard

	hits, misses, evictions, purged atomic.Int64

	// entryGauges/byteGauges export per-shard occupancy; nil-safe handles
	// no-op when the engine runs uninstrumented.
	entryGauges [lruShardCount]*obsv.Gauge
	byteGauges  [lruShardCount]*obsv.Gauge
}

type lruShard struct {
	mu      sync.Mutex
	entries map[string]*lruEntry
	// head is the most recently used entry, tail the eviction victim.
	head, tail *lruEntry

	// count/bytes shadow the map under atomics so len() and the gauges
	// read without the lock.
	count atomic.Int64
	bytes atomic.Int64
}

type lruEntry struct {
	key        string
	gen        uint64
	body       []byte
	prev, next *lruEntry
}

// newLRU creates a cache bounded to roughly max entries: the bound is
// enforced per shard at ceil(max/lruShardCount), so the global entry
// count never exceeds that times the shard count. max <= 0 disables
// caching entirely (every get misses, every put is dropped).
func newLRU(max int) *shardedLRU {
	c := &shardedLRU{}
	if max > 0 {
		c.perShard = (max + lruShardCount - 1) / lruShardCount
		for i := range c.shards {
			c.shards[i].entries = make(map[string]*lruEntry)
		}
	}
	return c
}

// fnv32 is FNV-1a over the key, allocation-free; it picks the cache shard.
func fnv32(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (c *shardedLRU) shard(key string) *lruShard {
	return &c.shards[fnv32(key)%lruShardCount]
}

// setMetrics wires the per-shard occupancy gauges, labeled by shard index.
func (c *shardedLRU) setMetrics(reg *obsv.Registry) {
	for i := range c.shards {
		if reg == nil {
			c.entryGauges[i], c.byteGauges[i] = nil, nil
			continue
		}
		shard := strconv.Itoa(i)
		c.entryGauges[i] = reg.Gauge(MetricServeLRUShardEntries, "shard", shard)
		c.byteGauges[i] = reg.Gauge(MetricServeLRUShardBytes, "shard", shard)
	}
}

func (c *shardedLRU) publishShard(i int, s *lruShard) {
	c.entryGauges[i].Set(s.count.Load())
	c.byteGauges[i].Set(s.bytes.Load())
}

// get returns the cached body for key, promoting it to most recent in
// its shard. The returned slice is shared: callers must treat it as
// read-only.
func (c *shardedLRU) get(key string) ([]byte, bool) {
	if c.perShard <= 0 {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.unlink(e)
	s.pushFront(e)
	body := e.body
	s.mu.Unlock()
	c.hits.Add(1)
	return body, true
}

// put stores body under key for the given snapshot generation, evicting
// from the shard's tail past capacity, and returns how many entries were
// evicted.
func (c *shardedLRU) put(key string, gen uint64, body []byte) int {
	if c.perShard <= 0 {
		return 0
	}
	i := int(fnv32(key) % lruShardCount)
	s := &c.shards[i]
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.bytes.Add(int64(len(body) - len(e.body)))
		e.body = body
		e.gen = gen
		s.unlink(e)
		s.pushFront(e)
		s.mu.Unlock()
		c.publishShard(i, s)
		return 0
	}
	e := &lruEntry{key: key, gen: gen, body: body}
	s.entries[key] = e
	s.pushFront(e)
	s.count.Add(1)
	s.bytes.Add(int64(len(body)))
	evicted := 0
	for len(s.entries) > c.perShard {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.key)
		s.count.Add(-1)
		s.bytes.Add(-int64(len(victim.body)))
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}
	c.publishShard(i, s)
	return evicted
}

// purge drops every entry whose generation is not keep, across all
// shards, and returns how many were dropped. Publish calls it so bodies
// of superseded generations stop occupying capacity the moment a new
// snapshot lands, instead of aging out of the recency tails.
func (c *shardedLRU) purge(keep uint64) int {
	if c.perShard <= 0 {
		return 0
	}
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, e := range s.entries {
			if e.gen == keep {
				continue
			}
			s.unlink(e)
			delete(s.entries, key)
			s.count.Add(-1)
			s.bytes.Add(-int64(len(e.body)))
			total++
		}
		s.mu.Unlock()
		c.publishShard(i, s)
	}
	if total > 0 {
		c.purged.Add(int64(total))
	}
	return total
}

// len reports the current entry count across all shards, lock-free.
func (c *shardedLRU) len() int {
	n := int64(0)
	for i := range c.shards {
		n += c.shards[i].count.Load()
	}
	return int(n)
}

// stats returns (hits, misses, evictions, purged) from the atomic
// counters — no shard lock is taken, so metric export never interleaves
// with the request path's lock ordering.
func (c *shardedLRU) stats() (hits, misses, evictions, purged int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), c.purged.Load()
}

// unlink removes e from the shard's recency list. Caller holds mu.
func (s *lruShard) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the shard's most recent entry. Caller holds mu.
func (s *lruShard) pushFront(e *lruEntry) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}
