package main

// prepare.go: the two children that run before the measured process.
//
// `prepare` turns a seed into input files and nothing else; its wall is
// setup_s. `oracle` reads those files through the deliberately naive path —
// bulk load, uncached pipeline, resident corpus, no prerender, no LRU — and
// records the digests the measured process must reproduce. Neither counts
// towards peak_rss_mb: exec is a fresh process that receives only files.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"retrodns/internal/scanner"
	"retrodns/internal/segment"
	"retrodns/internal/serve"
	"retrodns/internal/synth"
)

// prepareInfo is prepare.json.
type prepareInfo struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Domains  int     `json:"domains"`
	Scans    int     `json:"scans"`
	Rows     int     `json:"rows"`
	CSVBytes int64   `json:"csv_bytes"`
	GenS     float64 `json:"gen_s"`
	// Spill side, batch-spilled only.
	Records        int   `json:"records,omitempty"`
	EstimatedBytes int64 `json:"estimated_bytes,omitempty"`
	SealedBytes    int64 `json:"sealed_bytes,omitempty"`
	SpillDirBytes  int64 `json:"spill_dir_bytes,omitempty"`
	SpillFiles     int   `json:"spill_files,omitempty"`
}

// expectedInfo is expected.json, the oracle's output.
type expectedInfo struct {
	FindingsSHA256 string `json:"findings_sha256"`
	BodiesSHA256   string `json:"bodies_sha256"`
	Records        int    `json:"records"`
	Domains        int    `json:"domains"`
	Maps           int    `json:"maps"`
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func runPrepare(spec workloadSpec, seed int64, dir string) (*prepareInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	info := &prepareInfo{Workload: spec.Name, Seed: seed, Domains: spec.Domains, Scans: spec.Scans}
	csvPath := filepath.Join(dir, csvName)
	start := time.Now()
	rows, err := writeCorpusCSV(csvPath, synth.Config{Domains: spec.Domains, Seed: seed, Scans: spec.Scans})
	if err != nil {
		return nil, fmt.Errorf("write %s: %w", csvName, err)
	}
	info.GenS = time.Since(start).Seconds()
	info.Rows = rows
	fi, err := os.Stat(csvPath)
	if err != nil {
		return nil, err
	}
	info.CSVBytes = fi.Size()

	if spec.Name == wlBatchSpilled {
		if err := sealCorpus(csvPath, filepath.Join(dir, spillDirName), info); err != nil {
			return nil, err
		}
	}
	return info, writeJSONFile(filepath.Join(dir, "prepare.json"), info)
}

// sealCorpus bulk-loads the corpus, spills every shard (budget 0) and writes
// corpus.snap beside the segments: `retrodns -spill-save`, call for call.
func sealCorpus(csvPath, spillDir string, info *prepareInfo) error {
	ds, st, err := bulkIngest(csvPath, nil, newTracer(false, nil), -1)
	if err != nil {
		return fmt.Errorf("seal: ingest: %w", err)
	}
	if st.quarantined != 0 {
		return fmt.Errorf("seal: %d rows quarantined", st.quarantined)
	}
	info.Records = st.rows
	info.EstimatedBytes = ds.EstimatedBytes()
	if err := ds.ConfigureSpill(scanner.SpillOptions{Dir: spillDir, BudgetBytes: 0}); err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	if got := ds.SpilledShards(); got == 0 {
		return fmt.Errorf("seal: no shard spilled")
	}
	var buf bytes.Buffer
	if err := ds.EncodeSnapshot(&buf); err != nil {
		return fmt.Errorf("seal: encode: %w", err)
	}
	if err := segment.AtomicWrite(spillDir, corpusName, segment.Frame(corpusMagic, buf.Bytes())); err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return err
		}
		info.SpillDirBytes += fi.Size()
		info.SpillFiles++
		if filepath.Ext(e.Name()) == ".bin" {
			info.SealedBytes += fi.Size()
		}
	}
	return nil
}

// runOracle computes expected.json from the input files in dir.
func runOracle(seed int64, dir string) (*expectedInfo, error) {
	ds, st, err := bulkIngest(filepath.Join(dir, csvName), nil, newTracer(false, nil), -1)
	if err != nil {
		return nil, fmt.Errorf("oracle: ingest: %w", err)
	}
	res := newPipeline(ds, nil, nil).Run()
	findings, err := findingsBytes(res)
	if err != nil {
		return nil, err
	}
	exp := &expectedInfo{
		FindingsSHA256: sha256Hex(findings),
		Records:        st.rows,
		Domains:        res.Funnel.Domains,
		Maps:           res.Funnel.Maps,
	}

	// The /v1 body set, rendered with nothing in the way: no prerender, no
	// LRU, no socket.
	engine := serve.NewEngine(serve.Options{LRUSize: -1})
	engine.Publish(serve.BuildSnapshotOpts(res, ds, snapshotStamp(ds), serve.BuildOptions{PrerenderDomains: -1}))
	var digest bodySetDigest
	sink := newSink(true)
	for _, path := range verifyPaths(rosterOf(ds), seed) {
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			return nil, err
		}
		sink.reset()
		engine.ServeHTTP(sink, req)
		if sink.status != http.StatusOK {
			return nil, fmt.Errorf("oracle: %s: status %d", path, sink.status)
		}
		digest.add(path, sink.body)
	}
	exp.BodiesSHA256 = digest.sum()
	return exp, writeJSONFile(filepath.Join(dir, "expected.json"), exp)
}
