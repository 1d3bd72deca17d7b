package report

import (
	"bytes"
	"testing"
)

// The serve section is request-dependent (it reflects whatever traffic
// the daemon received), so it must round-trip through Encode/Read but
// vanish from the canonical form the drift gates compare.
func TestServeSectionStrippedFromCanonical(t *testing.T) {
	r := RunReport{
		Schema: RunReportSchema,
		Funnel: map[string]int{"domains": 1},
		Serve: &ServeSection{
			Generation:     9,
			Swaps:          3,
			Prerendered:    2508,
			BodyTemplates:  4,
			BodiesRendered: 14,
			Requests:       map[string]int64{"funnel": 12, "healthz": 2},
		},
	}
	if got := r.Canonical().Serve; got != nil {
		t.Fatalf("Canonical kept serve section: %+v", got)
	}
	if r.Serve == nil {
		t.Fatal("Canonical mutated the original report")
	}

	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRunReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Serve == nil || back.Serve.Generation != 9 || back.Serve.Swaps != 3 {
		t.Fatalf("serve section did not round-trip: %+v", back.Serve)
	}
	if back.Serve.Prerendered != 2508 || back.Serve.BodyTemplates != 4 || back.Serve.BodiesRendered != 14 {
		t.Errorf("body counts did not round-trip: %+v", back.Serve)
	}
	if back.Serve.Requests["funnel"] != 12 {
		t.Errorf("requests round-trip: %v", back.Serve.Requests)
	}
}

// A report without the section (every producer except retrodnsd) still
// parses and canonicalizes.
func TestServeSectionOptional(t *testing.T) {
	r := RunReport{Schema: RunReportSchema, Funnel: map[string]int{"domains": 1}}
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRunReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Serve != nil {
		t.Fatalf("absent section decoded as %+v", back.Serve)
	}
}
