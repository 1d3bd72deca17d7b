package core

import (
	"strings"
	"testing"
	"time"

	"retrodns/internal/dnscore"
)

// TestPipelineLegacyFanoutIdentical is the A/B pin for the shard-affine
// classify engine: the retained legacy per-domain fan-out must produce
// identical results — funnel, history, findings, candidates — for serial
// and 8-way workers, with and without stitching. Shard affinity is an
// execution strategy, never an analysis input.
func TestPipelineLegacyFanoutIdentical(t *testing.T) {
	for _, stitch := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			run := func(legacy bool) *Result {
				p := buildPipelineWorld(t)
				p.Params.StitchPeriods = stitch
				p.Workers = workers
				p.LegacyFanout = legacy
				return p.Run()
			}
			affine, legacy := run(false), run(true)
			requireIdenticalResults(t, affine, legacy)
			if t.Failed() {
				t.Fatalf("diverged at workers=%d stitch=%v", workers, stitch)
			}
			if legacy.Stats.ShardSkew != 0 {
				t.Errorf("legacy fan-out reported shard skew %.2f, want 0 (no per-shard signal)",
					legacy.Stats.ShardSkew)
			}
		}
	}
}

// TestMergeByDomain pins the k-way fragment merge: per-shard lists that
// ascend by domain with disjoint domain sets interleave into the exact
// global domain order, with a domain's consecutive run kept intact.
func TestMergeByDomain(t *testing.T) {
	mk := func(domains ...dnscore.Name) []*Classification {
		out := make([]*Classification, len(domains))
		for i, d := range domains {
			out[i] = &Classification{Map: &DeploymentMap{Domain: d}}
		}
		return out
	}
	domainsOf := func(cs []*Classification) []dnscore.Name {
		out := make([]dnscore.Name, len(cs))
		for i, c := range cs {
			out[i] = c.Map.Domain
		}
		return out
	}

	if got := mergeByDomain(nil); got != nil {
		t.Errorf("merge of nothing = %v, want nil", got)
	}
	if got := mergeByDomain([][]*Classification{nil, nil}); got != nil {
		t.Errorf("merge of empty lists = %v, want nil", got)
	}

	// Single non-empty list returns as-is (fast path).
	solo := mk("a.com", "b.com")
	if got := mergeByDomain([][]*Classification{nil, solo}); len(got) != 2 || got[0] != solo[0] {
		t.Errorf("single-list fast path copied or reordered: %v", domainsOf(got))
	}

	// Three shards, disjoint sorted domains, one domain with a two-entry
	// run (two transient periods) that must stay consecutive.
	lists := [][]*Classification{
		mk("b.com", "e.com", "e.com"),
		mk("a.com", "d.com"),
		mk("c.com", "f.com"),
	}
	got := domainsOf(mergeByDomain(lists))
	want := []dnscore.Name{"a.com", "b.com", "c.com", "d.com", "e.com", "e.com", "f.com"}
	if len(got) != len(want) {
		t.Fatalf("merged %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged order %v, want %v", got, want)
		}
	}
}

// TestShardSkewStat pins the max/min busy ratio: shards without work or
// measurable time are excluded, and fewer than two contributing shards
// means no signal (0).
func TestShardSkewStat(t *testing.T) {
	frag := func(domains int, busy time.Duration) shardClassifyOut {
		f := shardClassifyOut{busy: busy}
		f.domains = make([]dnscore.Name, domains)
		return f
	}
	cases := []struct {
		name  string
		frags []shardClassifyOut
		want  float64
	}{
		{"no fragments", nil, 0},
		{"single shard", []shardClassifyOut{frag(5, time.Millisecond)}, 0},
		{"empty shards ignored", []shardClassifyOut{frag(5, 2*time.Millisecond), frag(0, time.Millisecond)}, 0},
		{"two shards", []shardClassifyOut{frag(5, 3*time.Millisecond), frag(7, time.Millisecond)}, 3},
		{"zero busy ignored", []shardClassifyOut{frag(5, 4*time.Millisecond), frag(3, 0), frag(2, 2*time.Millisecond)}, 2},
	}
	for _, tc := range cases {
		if got := shardSkew(tc.frags); got != tc.want {
			t.Errorf("%s: skew = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestShardSkewSurfaced: a default (shard-affine, multi-shard) run over
// the fabricated world reports either no signal or a ratio >= 1, and the
// stats rendering carries the line exactly when the signal exists.
func TestShardSkewSurfaced(t *testing.T) {
	p := buildPipelineWorld(t)
	res := p.Run()
	if s := res.Stats.ShardSkew; s != 0 && s < 1 {
		t.Errorf("shard skew = %v, want 0 or >= 1 (max/min ratio)", s)
	}
	rendered := res.Stats.String()
	hasLine := strings.Contains(rendered, "shard-skew")
	if hasLine != (res.Stats.ShardSkew > 0) {
		t.Errorf("stats rendering shard-skew line = %v, but ShardSkew = %v:\n%s",
			hasLine, res.Stats.ShardSkew, rendered)
	}
}
