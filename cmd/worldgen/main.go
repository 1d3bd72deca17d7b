// Command worldgen generates a synthetic study and exports its raw data
// sets as CSV — the shapes a researcher would receive from Censys,
// DomainTools, and crt.sh — plus the simulation's ground truth, so the
// pipeline (or any other tool) can be exercised on the data externally.
//
//	worldgen -out ./data -seed 1 -stable 400
//
// Files written: scans.csv, pdns.csv, ct.csv, truth.csv.
//
// With -domains N (N > 0) worldgen switches to paper-scale mode: instead
// of simulating a behavioral world it streams a synthetic corpus of N
// registered domains (internal/synth) straight into scans.csv, one record
// at a time — constant memory at any corpus size, so a million-domain
// corpus needs no more RAM than a hundred-domain one. Deployment sizes
// follow a zipf distribution (-zipf-s). Generation is a pure function of
// the seed: the same -seed (with the same -domains/-zipf-s/-scans) always
// yields a byte-identical scans.csv. Only scans.csv is written in this
// mode — there is no simulated world behind the records to export pDNS,
// CT, or ground truth from.
//
//	worldgen -out ./data -domains 1000000 -zipf-s 1.1 -seed 7
package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
	"retrodns/internal/world"
)

func main() {
	var (
		out     = flag.String("out", "data", "output directory")
		seed    = flag.Int64("seed", 1, "world generation seed")
		stable  = flag.Int("stable", 200, "benign stable-domain population")
		domains = flag.Int("domains", 0, "paper-scale mode: stream a synthetic corpus with this many registered domains (0 = simulate a world)")
		zipfS   = flag.Float64("zipf-s", 1.1, "zipf exponent for synthetic deployment popularity")
		scans   = flag.Int("scans", 4, "number of synthetic scan dates")
	)
	flag.Parse()

	if *domains > 0 {
		writeSynth(*out, synth.Config{Domains: *domains, ZipfS: *zipfS, Seed: *seed, Scans: *scans})
		return
	}

	cfg := world.DefaultConfig()
	cfg.Seed = *seed
	cfg.StableDomains = *stable
	cfg.TransitionDomains = *stable * 3 / 100
	cfg.NoisyDomains = max(2, *stable/250)

	fmt.Fprintf(os.Stderr, "generating world (seed %d)...\n", cfg.Seed)
	w := world.New(cfg)
	ds := w.Run()
	if err := w.Err(); err != nil {
		fatal(err)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	// scans.csv — the CUIDS analogue.
	writeCSV(filepath.Join(*out, "scans.csv"), scanner.ScanCSVHeader,
		func(emit func([]string)) {
			for _, domain := range ds.Domains() {
				for _, r := range ds.DomainRecords(domain, 0, 0) {
					// A record covering several registered domains would
					// repeat per domain; emit it once under its first SAN.
					if r.Cert.SANs[0].RegisteredDomain() != domain && r.Cert.SANs[0] != domain {
						continue
					}
					emit(scanner.FormatScanRow(r))
				}
			}
		})

	// pdns.csv — the DomainTools analogue.
	writeCSV(filepath.Join(*out, "pdns.csv"),
		[]string{"name", "type", "data", "first_seen", "last_seen", "count"},
		func(emit func([]string)) {
			for _, e := range w.PDNSDB.All() {
				emit([]string{
					string(e.Name), e.Type.String(), e.Data,
					e.FirstSeen.String(), e.LastSeen.String(), fmt.Sprint(e.Count),
				})
			}
		})

	// ct.csv — the crt.sh analogue.
	writeCSV(filepath.Join(*out, "ct.csv"),
		[]string{"crtsh_id", "logged_at", "issuer", "serial", "not_before", "not_after", "names"},
		func(emit func([]string)) {
			for _, e := range w.CT.Entries() {
				names := make([]string, len(e.Cert.SANs))
				for i, n := range e.Cert.SANs {
					names[i] = string(n)
				}
				emit([]string{
					fmt.Sprint(e.ID), e.LoggedAt.String(), e.Cert.Issuer,
					fmt.Sprint(e.Cert.Serial), e.Cert.NotBefore.String(), e.Cert.NotAfter.String(),
					strings.Join(names, " "),
				})
			}
		})

	// truth.csv — the simulation's ground truth (the paper has none).
	writeCSV(filepath.Join(*out, "truth.csv"),
		[]string{"domain", "kind", "method", "sector", "country"},
		func(emit func([]string)) {
			for _, t := range w.TruthList() {
				emit([]string{string(t.Domain), t.Kind, t.Method, t.Sector, string(t.Country)})
			}
		})

	nd, nr := ds.Size()
	fmt.Fprintf(os.Stderr, "wrote %s: %d domains, %d scan records, %d pdns rows, %d CT entries (study %s..%s)\n",
		*out, nd, nr, w.PDNSDB.Rows(), w.CT.Size(), simtime.StudyStart, simtime.StudyEnd-1)
}

// writeSynth streams a paper-scale synthetic corpus into scans.csv.
// Records flow generator → csv writer → buffered file one at a time;
// nothing is accumulated, so memory stays flat regardless of corpus size.
func writeSynth(out string, cfg synth.Config) {
	g := synth.New(cfg)
	dates := g.ScanDates()
	fmt.Fprintf(os.Stderr, "streaming synth corpus (seed %d, %d domains, ~%d records/scan, %d scans)...\n",
		cfg.Seed, g.Config().Domains, g.EstimatedRecords(), len(dates))
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(out, "scans.csv")
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	cw := csv.NewWriter(bw)
	if err := cw.Write(scanner.ScanCSVHeader); err != nil {
		fatal(err)
	}
	rows := 0
	for _, date := range dates {
		g.EmitScan(date, func(r *scanner.Record) {
			rows++
			if err := cw.Write(scanner.FormatScanRow(r)); err != nil {
				fatal(err)
			}
		})
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		fatal(err)
	}
	if err := bw.Flush(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d scan records over %d domains, %d scans\n",
		path, rows, g.Config().Domains, len(dates))
}

func writeCSV(path string, header []string, fill func(emit func([]string))) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write(header); err != nil {
		fatal(err)
	}
	fill(func(row []string) {
		if err := cw.Write(row); err != nil {
			fatal(err)
		}
	})
	cw.Flush()
	if err := cw.Error(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "worldgen:", err)
	os.Exit(1)
}
