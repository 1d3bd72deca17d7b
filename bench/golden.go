package main

// golden.go holds the committed digests of the findings document and the
// /v1 body set, keyed by corpus (domains x scans @ seed) and compiled into
// the binary. A run on a corpus the file covers must match it as well as the
// oracle; `go run ./bench run -seed 1 -update-golden` rewrites the entries
// from the oracle's digests.

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

type goldenEntry struct {
	Findings string `json:"findings_sha256"`
	Bodies   string `json:"bodies_sha256"`
}

//go:embed golden/digests.json
var goldenJSON []byte

// findGoldenFile locates the source copy of golden/digests.json for
// -update-golden, from the repository root or from this directory, and
// refuses anywhere else rather than writing a stray file.
func findGoldenFile() (string, error) {
	for _, p := range []string{filepath.Join("bench", "golden", "digests.json"), filepath.Join("golden", "digests.json")} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", errors.New("-update-golden: no bench/golden/digests.json here; run from the repository root or from bench/")
}

func corpusKey(spec workloadSpec, seed int64) string {
	return fmt.Sprintf("%dx%d@%d", spec.Domains, spec.Scans, seed)
}

func lookupGolden(spec workloadSpec, seed int64) (goldenEntry, bool) {
	entries := map[string]goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &entries); err != nil {
		panic("golden/digests.json: " + err.Error()) // a malformed committed file is a bug
	}
	e, ok := entries[corpusKey(spec, seed)]
	return e, ok
}

func updateGolden(path string, spec workloadSpec, seed int64, exp *expectedInfo) error {
	entries := map[string]goldenEntry{}
	if err := readJSONFile(path, &entries); err != nil {
		return err
	}
	entries[corpusKey(spec, seed)] = goldenEntry{Findings: exp.FindingsSHA256, Bodies: exp.BodiesSHA256}
	return writeJSONFile(path, entries)
}
