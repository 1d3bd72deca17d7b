package synth

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"testing"

	"retrodns/internal/dnscore"
	"retrodns/internal/scanner"
)

// The corpus is an input format: the bench goldens, smoke-scale and every
// recorded baseline assume a seed names one byte sequence. Both digests
// below were recorded from the commit before EmitScan and FormatScanRow
// stopped redoing per-domain work every scan; they change only when the
// corpus is meant to change.
const (
	goldenCSVSHA256   = "9350d6e53a9e7f19022084fa589400a9b4f52b561625fde1592d117922ad7947"
	goldenCertsSHA256 = "327ab74493d14de86c8cc7f11a18968a25cd541a439b13fbf726adeedae74857"
)

// goldenConfig is small but reaches every generator branch: ranks with 2, 3
// and 4 SANs, ranks of one to four digits, and (at 40 per mille over 30
// weekly scans) a few dozen transient rows.
var goldenConfig = Config{Domains: 1200, Seed: 7, Scans: 30, TransientPerMille: 40}

// TestCorpusBytesPinned pins the sha256 of scans.csv as worldgen and the
// benchmark write it (encoding/csv over FormatScanRow), and of the
// fingerprints of the certificates behind the rows, which cover the fields
// the CSV projection drops (serial, validity, method, signature).
func TestCorpusBytesPinned(t *testing.T) {
	g := New(goldenConfig)
	rows, certs := sha256.New(), sha256.New()
	cw := csv.NewWriter(rows)
	if err := cw.Write(scanner.ScanCSVHeader); err != nil {
		t.Fatal(err)
	}
	transients := 0
	for _, date := range g.ScanDates() {
		g.EmitScan(date, func(r *scanner.Record) {
			if err := cw.Write(scanner.FormatScanRow(r)); err != nil {
				t.Fatal(err)
			}
			fp := r.Cert.Fingerprint()
			certs.Write(fp[:])
			if r.Cert.Issuer == "Let's Encrypt" {
				transients++
			}
		})
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	if transients < 10 {
		t.Fatalf("golden config emitted %d transient rows; it no longer covers that branch", transients)
	}
	if got := hex.EncodeToString(rows.Sum(nil)); got != goldenCSVSHA256 {
		t.Errorf("scans.csv sha256 = %s, want %s", got, goldenCSVSHA256)
	}
	if got := hex.EncodeToString(certs.Sum(nil)); got != goldenCertsSHA256 {
		t.Errorf("certificate fingerprints sha256 = %s, want %s", got, goldenCertsSHA256)
	}
}

// TestSensitiveFlagMatchesRule holds the per-label-count flag EmitScan
// looks up to the rule it stands for, name by name, over every SAN count
// and the names past eight digits.
func TestSensitiveFlagMatchesRule(t *testing.T) {
	g := New(goldenConfig)
	for _, date := range g.ScanDates() {
		g.EmitScan(date, func(r *scanner.Record) {
			want := false
			for _, san := range r.Cert.SANs {
				want = want || scanner.IsSensitiveName(san)
			}
			if r.Sensitive != want {
				t.Fatalf("%v: sensitive=%v, the rule says %v", r.Cert.SANs, r.Sensitive, want)
			}
		})
	}
	for _, idx := range []int{0, 99999999, 100000000, 1234567890} {
		if got, want := nameOf(idx), dnscore.Name(fmt.Sprintf("d%08d.example", idx)); got != want {
			t.Errorf("nameOf(%d) = %q, want %q", idx, got, want)
		}
	}
}
