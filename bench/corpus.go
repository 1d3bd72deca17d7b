package main

// corpus.go holds what prepare, oracle and exec share: writing a synth
// corpus as scans.csv (the way `worldgen -synth-domains` does), bulk-loading
// it (ScanCSV.Next -> AddScan per date -> Freeze), and the digests the
// correctness checks compare.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/obsv"
	"retrodns/internal/pdns"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/serve"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
)

const (
	csvName      = "scans.csv"
	spillDirName = "spill"
	dataDirName  = "data"
	// corpusMagic and corpusName are cmd/retrodns's -spill-save framing.
	corpusMagic = "RDCP"
	corpusName  = "corpus.snap"
	// verifyDomains is how many seeded roster domains the correctness pass
	// fetches beside the singleton endpoints.
	verifyDomains = 2000
)

// writeCorpusCSV streams a synth corpus into path and returns the row count.
func writeCorpusCSV(path string, cfg synth.Config) (rows int, err error) {
	g := synth.New(cfg)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	cw := csv.NewWriter(bw)
	if err := cw.Write(scanner.ScanCSVHeader); err != nil {
		return 0, err
	}
	var werr error
	for _, date := range g.ScanDates() {
		g.EmitScan(date, func(r *scanner.Record) {
			rows++
			if err := cw.Write(scanner.FormatScanRow(r)); err != nil && werr == nil {
				werr = err
			}
		})
	}
	cw.Flush()
	if err := errors.Join(werr, cw.Error(), bw.Flush()); err != nil {
		return rows, err
	}
	return rows, f.Close()
}

// ingestStats is what one bulk load measured.
type ingestStats struct {
	rows        int
	scans       int
	quarantined int
	parse       time.Duration
	addScan     time.Duration
	freeze      time.Duration
}

func (s ingestStats) total() time.Duration { return s.parse + s.addScan + s.freeze }

// bulkIngest loads scans.csv the one-shot way: rows are parsed until the
// scan date changes, that scan is handed to AddScan, and the dataset is
// frozen at end of input. Each step is a span under parent.
func bulkIngest(path string, reg *obsv.Registry, tr *tracer, parent int) (*scanner.Dataset, ingestStats, error) {
	var st ingestStats
	f, err := os.Open(path)
	if err != nil {
		return nil, st, err
	}
	defer f.Close()
	ds := scanner.NewDatasetShards(scanner.DefaultShards)
	ds.SetMetrics(reg)
	rd := scanner.NewScanCSV(f)
	rd.OnQuarantine = func(reason, detail string) { st.quarantined++ }

	var lookahead *scanner.Record
	for eof := false; !eof; {
		var batch []*scanner.Record
		id, start := tr.begin("scanner.csv_parse", parent, st.scans)
		for {
			rec := lookahead
			lookahead = nil
			if rec == nil {
				rec, err = rd.Next()
				if errors.Is(err, io.EOF) {
					eof = true
					break
				}
				if err != nil {
					return nil, st, err
				}
			}
			if len(batch) > 0 && rec.ScanDate != batch[0].ScanDate {
				lookahead = rec
				break
			}
			batch = append(batch, rec)
		}
		st.parse += tr.end(id, start)
		if len(batch) == 0 {
			break
		}
		st.rows += len(batch)
		var aerr error
		st.addScan += tr.time("scanner.add_scan", parent, st.scans, func() {
			aerr = ds.AddScan(batch[0].ScanDate, batch)
		})
		if aerr != nil {
			return nil, st, aerr
		}
		st.scans++
	}
	rd.FinishTail()
	st.freeze = tr.time("scanner.freeze", parent, 0, ds.Freeze)
	st.quarantined += ds.Quarantine().Total
	return ds, st, nil
}

// newPipeline wires the pipeline the way both binaries do for a corpus with
// no simulated world behind it: empty pDNS, default params, Workers 0.
func newPipeline(ds *scanner.Dataset, cache *core.ClassifyCache, reg *obsv.Registry) *core.Pipeline {
	db := pdns.NewDB()
	db.SetMetrics(reg)
	return &core.Pipeline{
		Params: core.DefaultParams(), Dataset: ds, PDNS: db,
		Cache: cache, Metrics: reg,
	}
}

// snapshotStamp is retrodnsd's: the published snapshot's Built instant is
// the latest ingested scan date, not the wall clock.
func snapshotStamp(ds *scanner.Dataset) time.Time {
	if date, ok := ds.LatestScanDate(); ok {
		return date.Time()
	}
	return simtime.StudyStart.Time()
}

// findingsBytes renders the findings document the CLI's -json prints.
func findingsBytes(res *core.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// verifyNames is verifyDomains seeded picks from the sorted roster: the
// domains the correctness pass fetches and the window probes read.
func verifyNames(roster []string, seed int64) []string {
	n := min(verifyDomains, len(roster))
	names := make([]string, 0, n)
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, i := range r.Perm(len(roster))[:n] {
		names = append(names, roster[i])
	}
	return names
}

// verifyPaths is the fixed URL list behind the /v1 body-set digest: every
// singleton, every pattern label (the one fetch of the multi-megabyte
// patterns/stable), and the verifyNames domains.
func verifyPaths(roster []string, seed int64) []string {
	paths := []string{"/v1/shortlist", "/v1/funnel"}
	for _, label := range serve.PatternLabels {
		paths = append(paths, "/v1/patterns/"+label)
	}
	for _, name := range verifyNames(roster, seed) {
		paths = append(paths, "/v1/domain/"+name)
	}
	sort.Strings(paths)
	return paths
}

// normalizeGeneration zeroes the body's "generation" value, so the body-set
// digest compares content across ingest paths: a bulk load publishes
// generation 1, the follow loop generation scans+1, and every other byte
// must agree. Generation agreement is checked separately per reply.
func normalizeGeneration(body []byte) []byte {
	j, k, ok := generationDigits(body)
	if !ok {
		return body
	}
	out := make([]byte, 0, len(body))
	out = append(out, body[:j]...)
	out = append(out, '0')
	return append(out, body[k:]...)
}

// bodySetDigest folds (path, sha256(normalized body)) pairs, in path order,
// into one digest.
type bodySetDigest struct{ lines bytes.Buffer }

func (d *bodySetDigest) add(path string, body []byte) {
	fmt.Fprintf(&d.lines, "%s %s\n", path, sha256Hex(normalizeGeneration(body)))
}

func (d *bodySetDigest) sum() string { return sha256Hex(d.lines.Bytes()) }

// sinkWriter is a ResponseWriter with no socket behind it: the oracle
// renders through it (keep: the body is kept) and the serve probes time
// ServeHTTP into it (the body is dropped).
type sinkWriter struct {
	header http.Header
	status int
	body   []byte
	keep   bool
}

func newSink(keep bool) *sinkWriter { return &sinkWriter{header: http.Header{}, keep: keep} }

func (s *sinkWriter) Header() http.Header  { return s.header }
func (s *sinkWriter) WriteHeader(code int) { s.status = code }
func (s *sinkWriter) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	if s.keep {
		s.body = append(s.body, b...)
	}
	return len(b), nil
}

func (s *sinkWriter) reset() {
	s.status, s.body = 0, s.body[:0]
	for k := range s.header {
		delete(s.header, k)
	}
}

// rosterOf returns the dataset's sorted registered domains as strings.
func rosterOf(ds *scanner.Dataset) []string {
	names := ds.Domains()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = string(n)
	}
	return out
}
