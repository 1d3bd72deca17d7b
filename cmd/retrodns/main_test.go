package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"retrodns/internal/report"
	"retrodns/internal/scanner"
)

// A bulk world run counts the scans and records it ingests, as a -follow
// run of the same world does. It once attached the dataset's metrics only
// after ingest, and reported zero for both.
func TestBulkRunCountsIngest(t *testing.T) {
	ingested := func(args ...string) [2]int64 {
		path := filepath.Join(t.TempDir(), "report.json")
		defer func(args []string, fs *flag.FlagSet) { os.Args, flag.CommandLine = args, fs }(os.Args, flag.CommandLine)
		os.Args = append([]string{"retrodns", "-stable", "5", "-no-campaigns", "-report-json", path}, args...)
		flag.CommandLine = flag.NewFlagSet("retrodns", flag.ExitOnError)
		main()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		doc, err := report.ReadRunReport(f)
		if err != nil {
			t.Fatal(err)
		}
		var counts [2]int64
		for _, s := range doc.Metrics {
			switch s.Name {
			case scanner.MetricIngestScans:
				counts[0] = s.Value
			case scanner.MetricIngestRecords:
				counts[1] = s.Value
			}
		}
		return counts
	}
	bulk, follow := ingested(), ingested("-follow")
	if follow[0] == 0 || follow[1] == 0 {
		t.Fatalf("-follow run counts no ingest: scans, records = %v", follow)
	}
	if bulk != follow {
		t.Errorf("bulk run counts scans, records = %v, -follow %v", bulk, follow)
	}
}
