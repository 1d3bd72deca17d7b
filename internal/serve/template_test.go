package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/dnscore"
	"retrodns/internal/pdns"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
	"retrodns/internal/world"
)

// referenceBodies renders every domain of res the reference way: the
// reference mode's flattened DomainDoc through json.MarshalIndent, plus the
// trailing newline.
func referenceBodies(t testing.TB, res *core.Result, ds *scanner.Dataset) map[dnscore.Name][]byte {
	t.Helper()
	ref := BuildSnapshotOpts(res, ds, testBuilt, BuildOptions{PrerenderDomains: -1})
	if ref.bodies != nil || ref.BodyTemplates() != 0 || ref.BodiesRendered() != 0 {
		t.Fatal("reference snapshot carries default-mode bodies")
	}
	out := make(map[dnscore.Name][]byte, len(ref.docs))
	for name, doc := range ref.docs {
		body, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		out[name] = append(body, '\n')
	}
	return out
}

// servedBody serves name from snap through serveDomain — past the URL
// parse, so any indexed name can be asked for.
func servedBody(t testing.TB, e *Engine, snap *Snapshot, name dnscore.Name) []byte {
	t.Helper()
	rr := httptest.NewRecorder()
	if code := e.serveDomain(rr, name, snap); code != http.StatusOK {
		t.Fatalf("%q: status %d: %s", name, code, rr.Body)
	}
	if g := rr.Header().Get(GenerationHeader); g != strconv.FormatUint(snap.Generation, 10) {
		t.Fatalf("%q: generation header %q, snapshot %d", name, g, snap.Generation)
	}
	return rr.Body.Bytes()
}

// requireBodiesMatchReference builds the default snapshot of res and
// requires every domain's served bytes to equal the reference render.
func requireBodiesMatchReference(t testing.TB, res *core.Result, ds *scanner.Dataset) *Snapshot {
	t.Helper()
	want := referenceBodies(t, res, ds)
	snap := BuildSnapshot(res, ds, testBuilt)
	if snap.docs != nil {
		t.Fatal("default snapshot holds a DomainDoc map")
	}
	if snap.Domains() != len(want) {
		t.Fatalf("default snapshot indexes %d domains, reference %d", snap.Domains(), len(want))
	}
	e := NewEngine(Options{})
	for name, body := range want {
		if got := servedBody(t, e, snap, name); !bytes.Equal(got, body) {
			t.Fatalf("generation %d, %q (ref %d): served\n%s\nreference\n%s", snap.Generation, name, snap.bodies[name], got, body)
		}
	}
	if st := e.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("default mode touched the LRU: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
	return snap
}

// TestTemplatedBodiesMatchReference is the differential test of the body
// seams: over the 148-domain world, over a synthetic follow state at every
// scan (period boundaries included), and over names JSON must escape.
func TestTemplatedBodiesMatchReference(t *testing.T) {
	t.Run("world", func(t *testing.T) {
		cfg := world.DefaultConfig()
		cfg.StableDomains = 80
		cfg.TransitionDomains = 2
		cfg.NoisyDomains = 2
		w := world.New(cfg)
		ds := w.Run()
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		res := w.Pipeline(ds, 0, nil, nil).Run()
		snap := requireBodiesMatchReference(t, res, ds)

		// The world must actually exercise every shape of document.
		have := map[string]bool{}
		for _, d := range res.Export().Domains {
			whole := snap.bodies[d.Domain] < 0
			if whole != (len(d.Candidates) > 0 || len(d.Findings) > 0) {
				t.Errorf("%s: rendered whole = %v with %d candidates, %d findings",
					d.Domain, whole, len(d.Candidates), len(d.Findings))
			}
			have[d.Verdict().String()] = true
			have[d.Rollup.String()] = true
			if d.Periods == (core.PeriodCategories{}) {
				have["pivot-only"] = true
			}
			for _, c := range d.Candidates {
				have[c.Pattern.String()] = true
			}
		}
		for _, shape := range []string{"hijacked", "targeted", "inconclusive", "pivot-only", "T1", "T2", "stable", "transition", "transient", "noisy"} {
			if !have[shape] {
				t.Errorf("world has no %s domain", shape)
			}
		}
		if snap.BodyTemplates() == 0 || snap.BodyTemplates() >= snap.Domains()-snap.BodiesRendered() {
			t.Errorf("templates = %d for %d templated domains: nothing shared",
				snap.BodyTemplates(), snap.Domains()-snap.BodiesRendered())
		}
	})

	t.Run("follow", func(t *testing.T) {
		g := synth.New(synth.Config{Domains: 300, Seed: 3, Scans: 60, TransientPerMille: 20})
		ds := scanner.NewDataset()
		pipe := &core.Pipeline{
			Params: core.DefaultParams(), Dataset: ds, PDNS: pdns.NewDB(),
			Cache: core.NewClassifyCache(),
		}
		periods := map[simtime.Period]bool{}
		rendered := 0
		for _, date := range g.ScanDates() {
			if err := ds.Append(date, g.Scan(date)); err != nil {
				t.Fatal(err)
			}
			periods[simtime.PeriodOf(date)] = true
			snap := requireBodiesMatchReference(t, pipe.Run(), ds)
			rendered += snap.BodiesRendered()
		}
		if len(periods) < 3 {
			t.Errorf("follow state crossed %d periods, want >= 3", len(periods))
		}
		if rendered == 0 {
			t.Error("no scan produced a candidate-bearing domain")
		}
	})

	t.Run("escaped-names", func(t *testing.T) {
		names := []dnscore.Name{
			`quo"te.example`, `back\slash.example`, "less<than.example", "greater>than.example",
			"amp&ersand.example", "ctl\x01byte.example", "del\x7fbyte.example",
			"ünï.example", "bad\xffutf8.example", "line\u2028sep.example",
		}
		res := testResult()
		for _, name := range names {
			res.History[name] = categories(map[simtime.Period]core.Category{0: core.CategoryStable, 1: core.CategoryStable})
		}
		snap := requireBodiesMatchReference(t, res, nil)
		for _, name := range names {
			if ref := snap.bodies[name]; ref >= 0 {
				t.Errorf("%q took the template path (ref %d)", name, ref)
			}
		}
		if ref := snap.bodies["steady.com"]; ref < 0 {
			t.Errorf("steady.com rendered whole (ref %d)", ref)
		}
		if want := len(names) + 1; snap.BodiesRendered() != want {
			t.Errorf("rendered whole = %d, want %d", snap.BodiesRendered(), want)
		}
	})
}

// TestPatternListingsMatchReference is the differential test of the listing
// writer: for every label and every shape of domain list — nil, empty, one
// name, many, and lists holding each kind of name encoding/json would
// escape — renderPatterns returns renderDoc's bytes.
func TestPatternListingsMatchReference(t *testing.T) {
	many := make([]string, 300)
	for i := range many {
		many[i] = fmt.Sprintf("d%08d.example", i)
	}
	lists := map[string][]string{
		"nil": nil, "empty": {}, "one": {"steady.com"}, "many": many,
		"escaped-only": {`quo"te.example`},
	}
	for _, name := range []string{
		`back\slash.example`, "less<than.example", "amp&ersand.example", "ctl\x01byte.example",
		"del\x7fbyte.example", "ünï.example", "bad\xffutf8.example", "line\u2028sep.example",
	} {
		lists["escaped:"+name] = []string{"alpha.com", name, "zulu.org"}
	}
	labels := append([]string{`we"ird`, ""}, PatternLabels...)
	for _, label := range labels {
		for shape, domains := range lists {
			for _, gen := range []uint64{0, 7, 1<<64 - 1} {
				doc := &PatternsDoc{Generation: gen, Label: label, Count: len(domains), Domains: domains}
				if got, want := renderPatterns(doc), renderDoc(doc); !bytes.Equal(got, want) {
					t.Fatalf("label %q, %s list, generation %d: rendered\n%s\nreference\n%s", label, shape, gen, got, want)
				}
			}
		}
	}
	// A negative count is not something BuildSnapshot produces, but the
	// document type allows it.
	doc := &PatternsDoc{Label: "stable", Count: -3, Domains: []string{"a.example"}}
	if got, want := renderPatterns(doc), renderDoc(doc); !bytes.Equal(got, want) {
		t.Fatalf("negative count: rendered\n%s\nreference\n%s", got, want)
	}
}

// FuzzDomainBody is the seam check under arbitrary input: any name, any
// category history, any generation — the served bytes equal the reference
// render and nothing panics.
func FuzzDomainBody(f *testing.F) {
	f.Add("steady.com", []byte{1, 1}, uint64(7))
	f.Add(`we"ird\.example`, []byte{0, 4, 0, 3, 2, 1, 1, 1, 1}, uint64(0))
	f.Add("x", []byte{}, uint64(1<<64-1))
	f.Add("ünï.example", []byte{2}, uint64(10))
	f.Fuzz(func(t *testing.T, name string, cats []byte, gen uint64) {
		var history core.PeriodCategories
		for p, c := range cats {
			// 0 leaves the period unclassified; 1..4 are the categories.
			if p < simtime.NumPeriods && c%5 != 0 {
				history.Set(simtime.Period(p), core.Category(c%5-1))
			}
		}
		res := testResult()
		res.Stats.Generation = gen
		res.History[dnscore.Name(name)] = history
		requireBodiesMatchReference(t, res, nil)
	})
}

// TestSnapshotNotAliasedUnderAppend is the aliasing rule under -race: a
// cached pipeline keeps appending, re-running and publishing — extending
// cached deployment maps in place — while readers fetch a candidate-bearing
// domain and a stable one. Every reply must be a 200 under one generation
// whose body is the reference render recorded for exactly that generation
// before it was published, in the default and the reference mode.
func TestSnapshotNotAliasedUnderAppend(t *testing.T) {
	g := synth.New(synth.Config{Domains: 120, Seed: 5, Scans: 40, TransientPerMille: 60})
	dates := g.ScanDates()

	// Pick the names from a dry run: the first domain to carry a candidate
	// at the final scan, and one that never does.
	dry := scanner.NewDataset()
	for _, date := range dates {
		if err := dry.AddScan(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
	}
	final := (&core.Pipeline{Params: core.DefaultParams(), Dataset: dry, PDNS: pdns.NewDB()}).Run()
	if len(final.Candidates) == 0 {
		t.Fatal("synthetic corpus produced no candidate")
	}
	flagged := final.Candidates[0].Domain
	var stable dnscore.Name
	for _, d := range final.Export().Domains {
		if len(d.Candidates) == 0 && d.Rollup == core.CategoryStable {
			stable = d.Domain
			break
		}
	}
	if stable == "" {
		t.Fatal("synthetic corpus has no stable domain")
	}
	names := []dnscore.Name{flagged, stable}

	for _, mode := range []struct {
		name string
		opts BuildOptions
	}{{"default", BuildOptions{}}, {"reference", BuildOptions{PrerenderDomains: -1}}} {
		t.Run(mode.name, func(t *testing.T) {
			ds := scanner.NewDataset()
			pipe := &core.Pipeline{
				Params: core.DefaultParams(), Dataset: ds, PDNS: pdns.NewDB(),
				Cache: core.NewClassifyCache(),
			}
			engine := NewEngine(Options{})
			h := engine.Handler()

			// want[gen][name] is recorded before gen is published, so any
			// generation a reader can observe has an entry.
			var mu sync.Mutex
			want := make(map[string]map[dnscore.Name][]byte)

			done := make(chan struct{})
			errs := make(chan error, 16)
			fail := func(err error) {
				select {
				case errs <- err:
				default:
				}
			}
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func(name dnscore.Name) {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						rr := httptest.NewRecorder()
						h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/domain/"+string(name), nil))
						if rr.Code == http.StatusServiceUnavailable {
							continue // before the first publish
						}
						gen := rr.Header().Get(GenerationHeader)
						if rr.Code != http.StatusOK {
							fail(fmt.Errorf("%s: status %d under generation %s: %s", name, rr.Code, gen, rr.Body))
							return
						}
						mu.Lock()
						bodies := want[gen]
						mu.Unlock()
						if !bytes.Equal(rr.Body.Bytes(), bodies[name]) {
							fail(fmt.Errorf("%s under generation %s: served\n%s\nreference\n%s", name, gen, rr.Body, bodies[name]))
							return
						}
					}
				}(names[i%len(names)])
			}

			sawFlagged := false
			for _, date := range dates {
				if err := ds.Append(date, g.Scan(date)); err != nil {
					close(done)
					t.Fatalf("append %s: %v", date, err)
				}
				res := pipe.Run()
				ref := referenceBodies(t, res, ds)
				snap := BuildSnapshotOpts(res, ds, testBuilt, mode.opts)
				if d := res.Export().Domain(flagged); d != nil && len(d.Candidates) > 0 {
					sawFlagged = true
				}
				mu.Lock()
				want[strconv.FormatUint(snap.Generation, 10)] = ref
				mu.Unlock()
				engine.Publish(snap)
			}
			close(done)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if !sawFlagged {
				t.Errorf("%s never carried a candidate during the follow loop", flagged)
			}
		})
	}
}
