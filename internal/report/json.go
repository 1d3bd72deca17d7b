package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"retrodns/internal/core"
)

// ErrBadReport reports a document ReadJSON could not accept as a
// previously exported report.
var ErrBadReport = errors.New("report: malformed JSON report")

// JSONFinding is the machine-readable form of a finding, stable across
// releases for downstream consumers.
type JSONFinding struct {
	Domain       string   `json:"domain"`
	TargetName   string   `json:"target_name"`
	Sub          string   `json:"sub,omitempty"`
	Method       string   `json:"method"`
	Verdict      string   `json:"verdict"`
	Date         string   `json:"date"`
	PDNS         bool     `json:"pdns_corroborated"`
	CT           bool     `json:"ct_corroborated"`
	DNSSECChange bool     `json:"dnssec_downgrade,omitempty"`
	AttackerIP   string   `json:"attacker_ip,omitempty"`
	AttackerASN  uint32   `json:"attacker_asn,omitempty"`
	AttackerCC   string   `json:"attacker_cc,omitempty"`
	AttackerNS   []string `json:"attacker_ns,omitempty"`
	VictimASNs   []uint32 `json:"victim_asns,omitempty"`
	VictimCCs    []string `json:"victim_ccs,omitempty"`
	CrtShID      int64    `json:"crtsh_id,omitempty"`
	IssuerCA     string   `json:"issuer_ca,omitempty"`
	CertSHA256   string   `json:"cert_sha256,omitempty"`
}

// JSONReport is the top-level export document.
type JSONReport struct {
	Hijacked []JSONFinding  `json:"hijacked"`
	Targeted []JSONFinding  `json:"targeted"`
	Funnel   map[string]int `json:"funnel"`
}

// FindingJSON converts one finding to its stable machine-readable form —
// the same shape WriteJSON emits, shared with the serving layer so a
// /v1/domain response and a CLI export never disagree on field names.
func FindingJSON(f *core.Finding) JSONFinding { return toJSONFinding(f) }

func toJSONFinding(f *core.Finding) JSONFinding {
	out := JSONFinding{
		Domain:       string(f.Domain),
		TargetName:   string(f.TargetName()),
		Sub:          f.Sub,
		Method:       string(f.Method),
		Verdict:      f.Verdict.String(),
		Date:         f.Date.String(),
		PDNS:         f.PDNS,
		CT:           f.CT,
		DNSSECChange: f.DNSSECChange,
		AttackerASN:  uint32(f.AttackerASN),
		AttackerCC:   string(f.AttackerCC),
		CrtShID:      f.CrtShID,
		IssuerCA:     f.IssuerCA,
	}
	if f.AttackerIP.IsValid() {
		out.AttackerIP = f.AttackerIP.String()
	}
	if f.CrtShID != 0 {
		out.CertSHA256 = f.CertFP.Hex()
	}
	for _, ns := range f.AttackerNS {
		out.AttackerNS = append(out.AttackerNS, string(ns))
	}
	for _, a := range f.VictimASNs {
		out.VictimASNs = append(out.VictimASNs, uint32(a))
	}
	for _, c := range f.VictimCCs {
		out.VictimCCs = append(out.VictimCCs, string(c))
	}
	return out
}

// BuildJSONReport assembles the export document from a pipeline result.
func BuildJSONReport(res *core.Result) JSONReport {
	doc := JSONReport{
		Hijacked: make([]JSONFinding, 0, len(res.Hijacked)),
		Targeted: make([]JSONFinding, 0, len(res.Targeted)),
		Funnel: map[string]int{
			"domains":           res.Funnel.Domains,
			"maps":              res.Funnel.Maps,
			"stable":            res.Funnel.DomainCategories[core.CategoryStable],
			"transition":        res.Funnel.DomainCategories[core.CategoryTransition],
			"transient":         res.Funnel.DomainCategories[core.CategoryTransient],
			"noisy":             res.Funnel.DomainCategories[core.CategoryNoisy],
			"shortlisted":       res.Funnel.Shortlisted,
			"worth_examining":   res.Funnel.WorthExamining,
			"pivot_found":       res.Funnel.PivotFound,
			"hijacked_verdicts": len(res.Hijacked),
			"targeted_verdicts": len(res.Targeted),
		},
	}
	for _, f := range res.Hijacked {
		doc.Hijacked = append(doc.Hijacked, toJSONFinding(f))
	}
	for _, f := range res.Targeted {
		doc.Targeted = append(doc.Targeted, toJSONFinding(f))
	}
	return doc
}

// Encode streams the document as indented JSON.
func (doc JSONReport) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteJSON streams the result as indented JSON.
func WriteJSON(w io.Writer, res *core.Result) error {
	return BuildJSONReport(res).Encode(w)
}

// ReadJSON parses a document WriteJSON produced — the consumer side of
// the stable export format. Strict by construction: unknown fields,
// mistyped values, and trailing data are all ErrBadReport, so a truncated
// or hand-mangled export fails loudly instead of reading as empty. An
// empty attacker_ns, victim_asns or victim_ccs list reads as absent: the
// encoding omits both, so it cannot tell them apart.
func ReadJSON(r io.Reader) (*JSONReport, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc JSONReport
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadReport, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after document", ErrBadReport)
	}
	for _, findings := range [][]JSONFinding{doc.Hijacked, doc.Targeted} {
		for i := range findings {
			f := &findings[i]
			if len(f.AttackerNS) == 0 {
				f.AttackerNS = nil
			}
			if len(f.VictimASNs) == 0 {
				f.VictimASNs = nil
			}
			if len(f.VictimCCs) == 0 {
				f.VictimCCs = nil
			}
		}
	}
	return &doc, nil
}
