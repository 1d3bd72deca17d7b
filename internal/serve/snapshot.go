// Package serve is the read side of the system: an embeddable query
// engine that turns each pipeline Result into an immutable Snapshot with
// precomputed per-domain, per-period, and per-pattern indexes and every
// response body either rendered or reduced to a shared template at build
// time, swaps snapshots atomically (RCU-style — readers never lock,
// writers publish a fully-built successor), and exposes the paper's §4
// artifacts as versioned HTTP endpoints. A bounded LRU of rendered JSON
// fronts only the render-on-request reference mode. cmd/retrodnsd is the
// daemon wrapping it; the engine itself embeds into any process that
// already runs the pipeline.
package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/dnscore"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// PatternLabels are the valid /v1/patterns/{label} selectors: the four
// §4.2 map categories by domain rollup, plus the T1/T2 transient
// patterns by shortlisted candidate.
var PatternLabels = []string{"stable", "transition", "transient", "noisy", "T1", "T2"}

// PeriodDoc is one analysis period's classification of a domain.
type PeriodDoc struct {
	Period   int    `json:"period"`
	Start    string `json:"start"`
	End      string `json:"end"`
	Category string `json:"category"`
}

// CandidateDoc is one shortlist survivor: the transient deployment that
// triggered it and the §4.3 reason it survived pruning.
type CandidateDoc struct {
	Period    int      `json:"period"`
	Pattern   string   `json:"pattern"`
	ASN       uint32   `json:"transient_asn"`
	Countries []string `json:"transient_countries,omitempty"`
	FirstSeen string   `json:"first_seen"`
	LastSeen  string   `json:"last_seen"`
	Reason    string   `json:"shortlist_reason"`
}

// DomainDoc is the /v1/domain/{name} response: everything the last run
// concluded about one registered domain, under a single generation.
type DomainDoc struct {
	Generation uint64               `json:"generation"`
	Domain     string               `json:"domain"`
	Category   string               `json:"category"`
	Verdict    string               `json:"verdict"`
	Periods    []PeriodDoc          `json:"periods,omitempty"`
	Candidates []CandidateDoc       `json:"candidates,omitempty"`
	Findings   []report.JSONFinding `json:"findings,omitempty"`
}

// ShortlistEntryDoc is one row of the /v1/shortlist response.
type ShortlistEntryDoc struct {
	Domain  string `json:"domain"`
	Period  int    `json:"period"`
	Pattern string `json:"pattern"`
	ASN     uint32 `json:"transient_asn"`
	Reason  string `json:"shortlist_reason"`
}

// ShortlistDoc is the /v1/shortlist response: the §4.3 survivor list.
type ShortlistDoc struct {
	Generation     uint64              `json:"generation"`
	Total          int                 `json:"total"`
	TrulyAnomalous int                 `json:"truly_anomalous"`
	Candidates     []ShortlistEntryDoc `json:"candidates"`
}

// PeriodFunnelDoc is one period's slice of the funnel: how many domains
// each category claimed, and the candidate/finding activity dated there.
type PeriodFunnelDoc struct {
	Period     int            `json:"period"`
	Start      string         `json:"start"`
	End        string         `json:"end"`
	Categories map[string]int `json:"categories"`
	Candidates int            `json:"candidates"`
	Findings   int            `json:"findings"`
}

// FunnelDoc is the /v1/funnel response: the global §4.2–§4.5 running
// totals plus the per-period breakdown.
type FunnelDoc struct {
	Generation uint64            `json:"generation"`
	Funnel     map[string]int    `json:"funnel"`
	Periods    []PeriodFunnelDoc `json:"periods,omitempty"`
}

// PatternsDoc is the /v1/patterns/{label} response.
type PatternsDoc struct {
	Generation uint64   `json:"generation"`
	Label      string   `json:"label"`
	Count      int      `json:"count"`
	Domains    []string `json:"domains"`
}

// Snapshot is one immutable, fully-indexed view of a pipeline Result.
// Everything a request needs is precomputed at build time: after Publish
// the snapshot is only ever read, so request handlers share it freely
// across goroutines with no locking, and every field of every response
// body derives from the same generation by construction.
//
// Aliasing rule: once BuildSnapshot returns, the snapshot holds no
// *core.Candidate, *core.Finding, deployment map or History map —
// core.ClassifyCache extends cached deployment maps in place on the next
// Run, so a body that read one at request time could mix generations.
// Domains with candidates or findings are rendered (default mode) or
// flattened into DomainDocs (reference mode) at build, never on request.
type Snapshot struct {
	// Generation is the dataset generation the snapshot was built from.
	Generation uint64
	// Built is the wall-clock instant BuildSnapshot ran; /v1/healthz
	// reports the snapshot's age from it.
	Built time.Time

	lastScan    simtime.Date
	hasLastScan bool

	shortlist *ShortlistDoc
	funnel    *FunnelDoc
	patterns  map[string]*PatternsDoc

	// genHeader is Generation pre-formatted, for the body's "generation"
	// value and, as genValue, the X-Retrodns-Generation header slice every
	// response of this snapshot shares: the request path never formats it.
	genHeader string
	genValue  []string

	// Pre-rendered singleton bodies: shared read-only byte slices written
	// straight to the wire.
	shortlistBody []byte
	funnelBody    []byte
	patternsBody  map[string][]byte

	// Domain bodies, default mode. A /v1/domain document is domainHead +
	// generation + domainMid + name + tail, and for a domain with no
	// candidate and no finding the tail — category, verdict, period rows —
	// depends only on its per-period category history, which it shares with
	// most of the roster (§4.2: 96.5% of domains are stable in every
	// period). bodies maps such a name to its history's index in tails,
	// rendered once per distinct history; a domain with a candidate or
	// finding (or a name JSON would escape) maps to the complement of its
	// index in rendered, its whole body.
	bodies   map[dnscore.Name]int32
	tails    [][]byte
	rendered [][]byte

	// docs is the reference mode (BuildOptions.PrerenderDomains < 0): every
	// domain flattened at build, rendered by encoding/json per request
	// through the engine's LRU — what the default mode's bytes are tested
	// against. Exactly one of bodies and docs is set.
	docs map[dnscore.Name]*DomainDoc

	prerendered int
}

// Domains returns the number of indexed domains.
func (s *Snapshot) Domains() int { return len(s.bodies) + len(s.docs) }

// Prerendered returns how many responses are served from the snapshot
// with no rendering on request: the shortlist/funnel/pattern singletons
// plus, in the default mode, one per domain.
func (s *Snapshot) Prerendered() int { return s.prerendered }

// BodyTemplates returns how many distinct tails the domain bodies share.
func (s *Snapshot) BodyTemplates() int { return len(s.tails) }

// BodiesRendered returns how many domain bodies were rendered whole.
func (s *Snapshot) BodiesRendered() int { return len(s.rendered) }

// DefaultPrerenderDomains was the roster size past which no domain body
// was prerendered. It bounds nothing any more — a templated body costs one
// index entry, so every domain is served from the snapshot at any roster
// size — and stays only because bench/ compiles against it.
const DefaultPrerenderDomains = 1 << 17

// BuildOptions tunes BuildSnapshotOpts.
type BuildOptions struct {
	// PrerenderDomains selects how domain bodies are served: negative is
	// the reference path (flatten at build, render per request through the
	// LRU), anything else serves every domain from the snapshot.
	PrerenderDomains int
}

// renderDoc renders one response body exactly as the lazy path would
// (indented JSON + trailing newline). A marshal failure yields nil and
// the request path falls back to lazy rendering, which reports the error
// to the client.
func renderDoc(doc any) []byte {
	body, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil
	}
	return append(body, '\n')
}

// renderPatterns is renderDoc for a pattern listing, the one singleton whose
// size follows the roster: when the label and every name are what
// encoding/json writes verbatim (plainName) the same bytes are appended
// directly; any other document goes through renderDoc whole.
func renderPatterns(doc *PatternsDoc) []byte {
	size := 96 + len(doc.Label)
	plain := plainName(doc.Label)
	for _, name := range doc.Domains {
		plain = plain && plainName(name)
		size += len(name) + len(",\n    \"\"")
	}
	if !plain {
		return renderDoc(doc)
	}
	b := make([]byte, 0, size)
	b = append(b, "{\n  \"generation\": "...)
	b = strconv.AppendUint(b, doc.Generation, 10)
	b = append(b, ",\n  \"label\": \""...)
	b = append(b, doc.Label...)
	b = append(b, "\",\n  \"count\": "...)
	b = strconv.AppendInt(b, int64(doc.Count), 10)
	b = append(b, ",\n  \"domains\": "...)
	switch {
	case doc.Domains == nil:
		b = append(b, "null"...)
	case len(doc.Domains) == 0:
		b = append(b, "[]"...)
	default:
		sep := "[\n    \""
		for _, name := range doc.Domains {
			b = append(b, sep...)
			b = append(b, name...)
			b = append(b, '"')
			sep = ",\n    \""
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...)
}

// The fixed seams of a rendered DomainDoc. Generation and Domain are its
// first two fields, so what follows the name mentions neither.
const (
	domainHead = "{\n  \"generation\": "
	domainMid  = ",\n  \"domain\": \""
	// tailProbe is the placeholder name tails are rendered under, at
	// generation 0; tailCut is what that render starts with.
	tailProbe = "x"
	tailCut   = domainHead + "0" + domainMid + tailProbe
)

// renderTail renders what every candidate-free, finding-free domain with
// d's history shares: the reference render of such a domain, cut after the
// name, so the bytes are encoding/json's own. Should the seams ever move
// the cut fails, nil comes back and the caller renders the domain whole.
func renderTail(d *core.DomainExport) []byte {
	body := renderDoc(domainDoc(0, &core.DomainExport{Domain: tailProbe, Rollup: d.Rollup, Periods: d.Periods}))
	tail, ok := bytes.CutPrefix(body, []byte(tailCut))
	if !ok {
		return nil
	}
	return tail
}

// plainName reports whether encoding/json writes name verbatim between
// the quotes: printable ASCII other than the characters it escapes.
func plainName(name string) bool {
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// shortlistReason names why a candidate survived §4.3 pruning.
func shortlistReason(c *core.Candidate) string {
	switch {
	case c.TrulyAnomalous && c.Sensitive:
		return "truly-anomalous+sensitive-subdomain"
	case c.TrulyAnomalous:
		return "truly-anomalous"
	case c.Sensitive:
		return "sensitive-subdomain"
	default:
		// Only reachable with Params.DisableSensitiveGate.
		return "sensitive-gate-disabled"
	}
}

// candidateDoc flattens one shortlist candidate.
func candidateDoc(c *core.Candidate) CandidateDoc {
	doc := CandidateDoc{
		Period:    int(c.Period),
		Pattern:   c.Pattern.String(),
		ASN:       uint32(c.Transient.ASN),
		FirstSeen: c.Transient.First().String(),
		LastSeen:  c.Transient.Last().String(),
		Reason:    shortlistReason(c),
	}
	for _, cc := range c.Transient.CountryList() {
		doc.Countries = append(doc.Countries, string(cc))
	}
	return doc
}

// domainDoc flattens one exported domain under a generation.
func domainDoc(gen uint64, d *core.DomainExport) *DomainDoc {
	doc := &DomainDoc{
		Generation: gen,
		Domain:     string(d.Domain),
		Category:   d.Rollup.String(),
		Verdict:    d.Verdict().String(),
	}
	for p := simtime.Period(0); p < simtime.NumPeriods; p++ {
		if cat, ok := d.Periods.At(p); ok {
			doc.Periods = append(doc.Periods, PeriodDoc{
				Period: int(p), Start: p.Start().String(), End: p.End().String(),
				Category: cat.String(),
			})
		}
	}
	for _, c := range d.Candidates {
		doc.Candidates = append(doc.Candidates, candidateDoc(c))
	}
	for _, f := range d.Findings {
		doc.Findings = append(doc.Findings, report.FindingJSON(f))
	}
	return doc
}

// BuildSnapshot indexes one pipeline Result for serving. The generation
// is taken from the dataset when one is supplied (the live -follow
// shape), else from the Result's own stats; built stamps the snapshot's
// age for /v1/healthz. The Result is read, never retained (see Snapshot's
// aliasing rule) — the caller may keep running the pipeline while the
// snapshot serves.
func BuildSnapshot(res *core.Result, ds *scanner.Dataset, built time.Time) *Snapshot {
	return BuildSnapshotOpts(res, ds, built, BuildOptions{})
}

// BuildSnapshotOpts is BuildSnapshot with the reference path selectable.
func BuildSnapshotOpts(res *core.Result, ds *scanner.Dataset, built time.Time, opts BuildOptions) *Snapshot {
	gen := res.Stats.Generation
	if ds != nil {
		gen = ds.Generation()
	}
	genHeader := strconv.FormatUint(gen, 10)
	snap := &Snapshot{
		Generation: gen,
		Built:      built,
		genHeader:  genHeader,
		genValue:   []string{genHeader},
		patterns:   make(map[string]*PatternsDoc),
	}
	if ds != nil {
		snap.lastScan, snap.hasLastScan = ds.LatestScanDate()
	}

	export := res.Export()
	if opts.PrerenderDomains < 0 {
		snap.docs = make(map[dnscore.Name]*DomainDoc, len(export.Domains))
	} else {
		snap.bodies = make(map[dnscore.Name]int32, len(export.Domains))
	}

	// One walk over the sorted roster indexes every domain's body and
	// tallies what the pattern lists and the funnel's per-period breakdown
	// need, in arrays indexed by category, pattern and period.
	var (
		tailOf     = make(map[core.PeriodCategories]int32)
		byRollup   [core.CategoryNoisy + 1][]string
		byPattern  [core.PatternT2 + 1][]string
		periodCats [simtime.NumPeriods][core.CategoryNoisy + 1]int
	)
	for _, d := range export.Domains {
		name := string(d.Domain)
		byRollup[d.Rollup] = append(byRollup[d.Rollup], name)
		for p, c := range d.Periods {
			if c != 0 {
				periodCats[p][c-1]++
			}
		}
		var seen [core.PatternT2 + 1]bool
		for _, c := range d.Candidates {
			if pat := c.Pattern; (pat == core.PatternT1 || pat == core.PatternT2) && !seen[pat] {
				seen[pat] = true
				byPattern[pat] = append(byPattern[pat], name)
			}
		}

		if snap.docs != nil {
			snap.docs[d.Domain] = domainDoc(gen, d)
			continue
		}
		if len(d.Candidates) == 0 && len(d.Findings) == 0 && plainName(name) {
			id, ok := tailOf[d.Periods]
			if !ok {
				id = -1
				if tail := renderTail(d); tail != nil {
					id = int32(len(snap.tails))
					snap.tails = append(snap.tails, tail)
				}
				tailOf[d.Periods] = id
			}
			if id >= 0 {
				snap.bodies[d.Domain] = id
				continue
			}
		}
		snap.bodies[d.Domain] = ^int32(len(snap.rendered))
		snap.rendered = append(snap.rendered, renderDoc(domainDoc(gen, d)))
	}
	snap.prerendered = len(snap.bodies)

	// export.Domains is sorted, so the per-label lists arrive sorted.
	lists := map[string][]string{"T1": byPattern[core.PatternT1], "T2": byPattern[core.PatternT2]}
	for cat, domains := range byRollup {
		lists[core.Category(cat).String()] = domains
	}
	for _, label := range PatternLabels {
		snap.patterns[label] = &PatternsDoc{
			Generation: gen,
			Label:      label,
			Count:      len(lists[label]),
			Domains:    lists[label],
		}
	}

	// Shortlist, in the Result's candidate (pipeline) order.
	snap.shortlist = &ShortlistDoc{
		Generation:     gen,
		Total:          len(res.Candidates),
		TrulyAnomalous: res.Funnel.ShortlistedAnomalous,
		Candidates:     make([]ShortlistEntryDoc, 0, len(res.Candidates)),
	}
	for _, c := range res.Candidates {
		snap.shortlist.Candidates = append(snap.shortlist.Candidates, ShortlistEntryDoc{
			Domain:  string(c.Domain),
			Period:  int(c.Period),
			Pattern: c.Pattern.String(),
			ASN:     uint32(c.Transient.ASN),
			Reason:  shortlistReason(c),
		})
	}

	// Funnel: global counts plus the per-period breakdown. A period gets a
	// row when any domain has a category in it or a candidate or finding is
	// dated there.
	snap.funnel = &FunnelDoc{Generation: gen, Funnel: report.FunnelCounts(res)}
	var periodCandidates, periodFindings [simtime.NumPeriods]int
	for _, c := range res.Candidates {
		if c.Period.Valid() {
			periodCandidates[c.Period]++
		}
	}
	for _, f := range res.Findings() {
		periodFindings[simtime.PeriodOf(f.Date)]++
	}
	for p := simtime.Period(0); p < simtime.NumPeriods; p++ {
		cats := make(map[string]int)
		for cat, n := range periodCats[p] {
			if n > 0 {
				cats[core.Category(cat).String()] = n
			}
		}
		if len(cats) == 0 && periodCandidates[p] == 0 && periodFindings[p] == 0 {
			continue
		}
		snap.funnel.Periods = append(snap.funnel.Periods, PeriodFunnelDoc{
			Period: int(p), Start: p.Start().String(), End: p.End().String(),
			Categories: cats, Candidates: periodCandidates[p], Findings: periodFindings[p],
		})
	}

	// The singletons are always rendered — they are the hot endpoints and
	// there is exactly one body each.
	if body := renderDoc(snap.shortlist); body != nil {
		snap.shortlistBody = body
		snap.prerendered++
	}
	if body := renderDoc(snap.funnel); body != nil {
		snap.funnelBody = body
		snap.prerendered++
	}
	snap.patternsBody = make(map[string][]byte, len(snap.patterns))
	for label, doc := range snap.patterns {
		if body := renderPatterns(doc); body != nil {
			snap.patternsBody[label] = body
			snap.prerendered++
		}
	}
	return snap
}
