package world

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/dnscore"
	"retrodns/internal/obsv"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
)

// smallConfig keeps the benign population small so the end-to-end test is
// fast; the campaign machinery is exercised in full.
func smallConfig() Config {
	return Config{
		Seed:              7,
		StableDomains:     60,
		TransitionDomains: 5,
		NoisyDomains:      2,
		BenignTransients:  3,
		FlakyFraction:     0.05,
		PDNSCoverage:      1.0,
		Campaigns:         true,
		DNSSEC:            true,
	}
}

func runPipeline(t *testing.T, w *World) *core.Result {
	t.Helper()
	res, _ := runPipelineDS(t, w)
	return res
}

// runPipelineDS runs the study and pipeline, returning both the result and
// the scan dataset.
func runPipelineDS(t *testing.T, w *World) (*core.Result, *scanner.Dataset) {
	t.Helper()
	ds := w.Run()
	if len(w.Errors) != 0 {
		for _, err := range w.Errors {
			t.Errorf("world error: %v", err)
		}
		t.Fatal("world run produced errors")
	}
	return w.Sources().Pipeline(ds, 0, nil, nil).Run(), ds
}

// TestPipelineWiresEverySource pins the world's evidence as every binary
// and example wires it into a pipeline (Sources, then
// core.Sources.Pipeline): all four auxiliary sources the world simulates
// are attached — a pipeline missing DNSSEC still
// runs, it just never sets the §7.1 downgrade annotation, so nothing
// else would notice — and the caller's dataset, workers, cache and
// registry arrive untouched.
func TestPipelineWiresEverySource(t *testing.T) {
	w := New(smallConfig())
	ds, cache, reg := scanner.NewDataset(), core.NewClassifyCache(), obsv.NewRegistry()
	p := w.Sources().Pipeline(ds, 3, cache, reg)
	if p.Meta == nil || p.PDNS == nil || p.CT == nil || p.DNSSEC == nil {
		t.Fatalf("unwired source: Meta=%v PDNS=%v CT=%v DNSSEC=%v",
			p.Meta != nil, p.PDNS != nil, p.CT != nil, p.DNSSEC != nil)
	}
	if p.Dataset != ds || p.Workers != 3 || p.Cache != cache || p.Metrics != reg {
		t.Fatalf("caller arguments not passed through: %+v", p)
	}
	if p.Params != core.DefaultParams() {
		t.Fatalf("Params = %+v, want the defaults", p.Params)
	}
	if p := w.Sources().Pipeline(ds, 0, nil, nil); p.Cache != nil || p.Metrics != nil {
		t.Fatal("nil cache/metrics must stay nil (uncached, uninstrumented)")
	}
}

func TestWorldEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full study simulation")
	}
	w := New(smallConfig())
	// Run's scan series, scan by scan, so the pin below can hash each one.
	w.RunClock()
	ds := scanner.NewDatasetShards(scanner.DefaultShards)
	sc := w.Scanner()
	scans := sha256.New()
	for _, date := range w.ScanDates() {
		recs := sc.ScanWeek(date)
		scans.Write(scanner.EncodeBatch(date, recs))
		if err := ds.AddScan(date, recs); err != nil {
			t.Fatalf("AddScan %s: %v", date, err)
		}
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	// Two workers, so the run report's worker counts are the same on
	// every machine.
	res := w.Sources().Pipeline(ds, 2, nil, nil).Run()

	// The world's bytes are pinned: every scan's batch encoding in date
	// order, the findings JSON and the canonical run report. A change to
	// the simulation's speed must not move them; a change that means to
	// move them updates these digests.
	var findings, canonical bytes.Buffer
	if err := report.WriteJSON(&findings, res); err != nil {
		t.Fatal(err)
	}
	if err := report.BuildRunReport(res, ds.Quarantine(), nil).Canonical().Encode(&canonical); err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct{ what, got, want string }{
		{"scans", hex.EncodeToString(scans.Sum(nil)), "d6ff97e6aea9ccb8214854b9f00505dc84364af5d2e6793979069e5431477aac"},
		{"findings JSON", fmt.Sprintf("%x", sha256.Sum256(findings.Bytes())), "ef0c228b4d88f2bf942ab3182dd2e743bcb2e087ad454b7e005090ca3aeb348a"},
		{"canonical run report", fmt.Sprintf("%x", sha256.Sum256(canonical.Bytes())), "1c38c5f7ccce8d8e1321c6aa7813cba17ca8d35d34159f18ad6965298b06c6be"},
	} {
		if pin.got != pin.want {
			t.Errorf("%s digest %s, pinned %s", pin.what, pin.got, pin.want)
		}
	}

	expHijacked, expTargeted := w.ExpectedVictims()
	gotHijacked := make(map[dnscore.Name]*core.Finding)
	for _, f := range res.Hijacked {
		gotHijacked[f.Domain] = f
	}
	gotTargeted := make(map[dnscore.Name]*core.Finding)
	for _, f := range res.Targeted {
		gotTargeted[f.Domain] = f
	}

	// Recall: every ground-truth hijacked domain is identified.
	missedH := 0
	for _, d := range expHijacked {
		if gotHijacked[d] == nil {
			t.Errorf("missed hijacked domain %s (truth method %s)", d, w.Truth[d].Method)
			missedH++
		}
	}
	missedT := 0
	for _, d := range expTargeted {
		if gotTargeted[d] == nil && gotHijacked[d] == nil {
			t.Errorf("missed targeted domain %s", d)
			missedT++
		}
	}

	// Precision: no benign domain is flagged.
	for d := range gotHijacked {
		if truth := w.Truth[d]; truth == nil || truth.Kind != "hijacked" {
			t.Errorf("false positive hijacked: %s (truth %+v)", d, truth)
		}
	}
	for d := range gotTargeted {
		if truth := w.Truth[d]; truth == nil || (truth.Kind != "targeted" && truth.Kind != "hijacked") {
			t.Errorf("false positive targeted: %s (truth %+v)", d, truth)
		}
	}

	t.Logf("hijacked: got %d want %d; targeted: got %d want %d",
		len(res.Hijacked), len(expHijacked), len(res.Targeted), len(expTargeted))
	t.Logf("funnel:\n%s", res.Funnel.String())

	// Identification methods should match the paper's Type column.
	for _, f := range res.Hijacked {
		truth := w.Truth[f.Domain]
		if truth == nil {
			continue
		}
		if truth.Method != string(f.Method) {
			t.Errorf("%s: method %s, paper says %s", f.Domain, f.Method, truth.Method)
		}
	}
}
