package main

// Out-of-core corpus support for the CLI: the -spill-* flags wire
// scanner.SpillOptions into whichever dataset the run builds, and
// -spill-save/-spill-load persist a classified corpus as a framed
// snapshot ("RDCP" ++ EncodeSnapshot ++ CRC-32C) next to the segments,
// so a later process can classify the same corpus under a memory budget
// without paying the ingest peak. scripts/smoke_spill.sh drives this.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"retrodns/internal/scanner"
	"retrodns/internal/segment"
)

const (
	corpusMagic = "RDCP"
	corpusName  = "corpus.snap"
)

// saveCorpus writes the frozen dataset as <dir>/corpus.snap atomically.
// Spilled shards serialize as segment references, so the file stays small
// for an out-of-core corpus — the bulk of the bytes are already in the
// sealed segments.
func saveCorpus(ds *scanner.Dataset, dir string) error {
	var buf bytes.Buffer
	if err := ds.EncodeSnapshot(&buf); err != nil {
		return err
	}
	return segment.AtomicWrite(dir, corpusName, segment.Frame(corpusMagic, buf.Bytes()))
}

// configureSpill runs ds out of core under spill, when it is set, and exits
// if the segment store cannot be opened.
func configureSpill(ds *scanner.Dataset, spill *scanner.SpillOptions) {
	if spill == nil {
		return
	}
	if err := ds.ConfigureSpill(*spill); err != nil {
		fmt.Fprintln(os.Stderr, "spill:", err)
		os.Exit(1)
	}
}

// loadCorpus reads <dir>/corpus.snap back under the given spill options.
func loadCorpus(opts scanner.SpillOptions) (*scanner.Dataset, error) {
	data, err := os.ReadFile(filepath.Join(opts.Dir, corpusName))
	if err != nil {
		return nil, err
	}
	payload, err := segment.Unframe(corpusMagic, data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", corpusName, err)
	}
	return scanner.DecodeSnapshotSpill(payload, opts)
}

// reportMaxRSS prints the process peak RSS to stderr in a grep-friendly
// form; the spill smoke gate asserts on it. No-op when unsupported.
func reportMaxRSS(enabled bool) {
	if !enabled {
		return
	}
	if kb, ok := maxRSSKB(); ok {
		fmt.Fprintf(os.Stderr, "maxrss_kb=%d\n", kb)
	}
}
