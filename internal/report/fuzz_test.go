package report

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzReportJSONRoundTrip feeds arbitrary bytes to ReadJSON and checks
// the parser's contract: inputs either fail with ErrBadReport or decode
// into a document whose encode→decode round trip is the identity — the
// metamorphic relation that pins the export format as self-consistent.
func FuzzReportJSONRoundTrip(f *testing.F) {
	f.Add([]byte(`{"hijacked":[],"targeted":[],"funnel":{}}`))
	f.Add([]byte(`{"hijacked":null,"targeted":null,"funnel":null}`))
	f.Add([]byte(`{"hijacked":[{"domain":"ocom.com","target_name":"webmail.ocom.com","sub":"webmail","method":"T1","verdict":"hijacked","date":"2018-11-07","pdns_corroborated":true,"ct_corroborated":true,"attacker_ip":"185.15.247.140","attacker_asn":50673,"attacker_cc":"NL","attacker_ns":["ns1.rootdnsnet.net"],"victim_asns":[20473],"victim_ccs":["US"],"crtsh_id":922691740,"issuer_ca":"Let's Encrypt","cert_sha256":"ab"}],"targeted":[],"funnel":{"domains":15,"hijacked_verdicts":1}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`{"funnel":{"domains":1e3}}`))
	f.Add([]byte(`{"hijacked":[]} trailing`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("\x00\xff not json"))

	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadReport) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := doc.Encode(&buf); err != nil {
			t.Fatalf("accepted document failed to encode: %v", err)
		}
		again, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("own encoding rejected: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(doc, again) {
			t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", doc, again)
		}
	})
}

// TestReadJSONRejections pins the strictness guarantees the fuzz target
// assumes.
func TestReadJSONRejections(t *testing.T) {
	for _, bad := range []string{
		``,
		`{"hijacked":[]} trailing`,
		`{"unknown_field":1}`,
		`{"funnel":{"domains":"ten"}}`,
		`[1]`,
	} {
		if _, err := ReadJSON(bytes.NewReader([]byte(bad))); !errors.Is(err, ErrBadReport) {
			t.Errorf("ReadJSON(%q) err = %v, want ErrBadReport", bad, err)
		}
	}
	doc, err := ReadJSON(bytes.NewReader([]byte(`{"hijacked":[],"targeted":[],"funnel":{"domains":3}}`)))
	if err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	if doc.Funnel["domains"] != 3 {
		t.Errorf("funnel = %v", doc.Funnel)
	}
	// An empty list in a field the encoding omits when empty must survive the
	// round trip as what it decodes to the second time: absent.
	for _, field := range []string{"attacker_ns", "victim_asns", "victim_ccs"} {
		in := `{"hijacked":[{"domain":"a.example","` + field + `":[]}],"targeted":[{"` + field + `":[]}]}`
		doc, err := ReadJSON(bytes.NewReader([]byte(in)))
		if err != nil {
			t.Fatalf("ReadJSON(%s): %v", in, err)
		}
		var buf bytes.Buffer
		if err := doc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("own encoding of %s rejected: %v", in, err)
		}
		if !reflect.DeepEqual(doc, again) {
			t.Errorf("%s: round trip diverged:\n%+v\nvs\n%+v", in, doc, again)
		}
	}
}
