package serve

import (
	"strconv"
	"testing"
	"time"

	"retrodns/internal/obsv"
)

func TestTokenBucketBurstThenRefuse(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := newTokenBucket(1, 3)
	for i := 0; i < 3; i++ {
		if !tb.allow(now) {
			t.Fatalf("request %d refused inside burst", i)
		}
	}
	if tb.allow(now) {
		t.Fatal("request allowed past burst with no refill")
	}
}

func TestTokenBucketRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := newTokenBucket(2, 1) // 2 tokens/sec, burst 1
	if !tb.allow(now) {
		t.Fatal("first request refused")
	}
	if tb.allow(now) {
		t.Fatal("second request allowed with empty bucket")
	}
	// Half a second refills one token at 2/sec.
	now = now.Add(500 * time.Millisecond)
	if !tb.allow(now) {
		t.Fatal("request refused after refill")
	}
}

func TestTokenBucketCapsAtBurst(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := newTokenBucket(100, 2)
	// A long idle stretch must not bank more than the burst.
	now = now.Add(time.Hour)
	allowed := 0
	for i := 0; i < 10; i++ {
		if tb.allow(now) {
			allowed++
		}
	}
	if allowed != 2 {
		t.Fatalf("allowed %d after idle, want burst cap 2", allowed)
	}
}

func TestTokenBucketMinimumBurst(t *testing.T) {
	tb := newTokenBucket(1, 0)
	if !tb.allow(time.Unix(1000, 0)) {
		t.Fatal("burst 0 should clamp to 1 and allow one request")
	}
}

// TestTenantGaugeAtCap asserts the live-bucket gauge follows inserts and
// stays at the cap while new tenants evict stale ones.
func TestTenantGaugeAtCap(t *testing.T) {
	reg := obsv.NewRegistry()
	l := newTenantLimiter(1, 1)
	l.allow("early", time.Unix(1000, 0))
	l.setGauge(reg.Gauge(MetricServeTenants))
	g := reg.Gauge(MetricServeTenants)
	if g.Value() != 1 {
		t.Fatalf("gauge = %d after attaching to one bucket, want 1", g.Value())
	}
	now := time.Unix(2000, 0)
	for i := 0; i < maxTenantBuckets+10; i++ {
		l.allow(strconv.Itoa(i), now)
	}
	if g.Value() != maxTenantBuckets || l.tenants() != maxTenantBuckets {
		t.Errorf("gauge = %d, buckets = %d, want both %d", g.Value(), l.tenants(), maxTenantBuckets)
	}
}
