package scanner_test

// Lifecycle tests for the reader's read-ahead: how far it parses past an
// abandoned caller and that its producer then exits, what a source failing
// mid-stream looks like through it, and that OnQuarantine runs on the
// caller's goroutine. `make race` runs them under the race detector.

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"retrodns/internal/scanner"
)

// numberedRows is n valid scans.csv rows, one per address.
func numberedRows(n int) []string {
	rows := make([]string, n)
	for i := range rows {
		rows[i] = strings.Replace(goodRow, "84.205.1.9", fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255), 1)
	}
	return rows
}

// lineSource hands out at most one line per Read and counts the complete
// lines it has handed out: the reader has pulled no further into it.
type lineSource struct {
	data  string
	lines int
}

func (s *lineSource) Read(p []byte) (int, error) {
	if s.data == "" {
		return 0, io.EOF
	}
	n := strings.IndexByte(s.data, '\n') + 1
	if n == 0 {
		n = len(s.data)
	}
	n = copy(p, s.data[:n])
	s.lines += strings.Count(s.data[:n], "\n")
	s.data = s.data[n:]
	return n, nil
}

// waitGoroutines waits for the goroutine count to fall back to base: a
// producer that has stopped still has to return.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the reader: its producer did not exit", runtime.NumGoroutine(), base)
		}
	}
}

// TestScanCSVAbandonedReaderStops takes a few records and walks away: the
// producer parses at most the bound past the caller, stops by itself, and
// is gone once PartialTail (which waits for it) returns. A later Next picks
// up where the caller left off.
func TestScanCSVAbandonedReaderStops(t *testing.T) {
	for _, tc := range []struct {
		ra    readAhead
		bound int // rows parsed past the caller's
		rows  int
	}{
		{readAhead{}, scanner.ReadAheadBound, scanner.ReadAheadBound + 5000},
		{readAhead{3, 2}, 3 * 3, 100},
		{readAhead{1, 1}, 1 * 2, 20},
	} {
		t.Run(fmt.Sprintf("read-ahead %v", tc.ra), func(t *testing.T) {
			rows := numberedRows(tc.rows)
			src := &lineSource{data: strings.Join(scanner.ScanCSVHeader, ",") + "\n" + strings.Join(rows, "\n") + "\n"}
			base := runtime.NumGoroutine()
			c, events := eventReader(src, 0, tc.ra)
			const taken = 2
			for i := 0; i < taken; i++ {
				rec, err := c.Next()
				if err != nil {
					t.Fatalf("Next %d: %v", i, err)
				}
				*events = append(*events, csvEvent{rec: rec})
			}
			if c.PartialTail() {
				t.Fatal("PartialTail inside the input")
			}
			waitGoroutines(t, base)
			if ahead := src.lines - 1 - taken; ahead > tc.bound || ahead < 0 {
				t.Fatalf("read %d lines past the caller's %d, bound %d", ahead, taken, tc.bound)
			}
			if src.data == "" {
				t.Fatal("the reader consumed its whole source for an abandoned caller")
			}
			drain(t, c, events)
			c.FinishTail()
			sameEvents(t, "resumed", *events, referenceEvents(strings.Join(rows, "\n")+"\n"))
		})
	}
}

// failingSource serves data in short reads, failing once with errFlaky at
// offset failAt.
type failingSource struct {
	data        string
	off, failAt int
	failed      bool
}

var errFlaky = errors.New("flaky source")

func (s *failingSource) Read(p []byte) (int, error) {
	end := len(s.data)
	if !s.failed {
		if s.off == s.failAt {
			s.failed = true
			return 0, errFlaky
		}
		end = s.failAt
	}
	if s.off == end {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 97)], s.data[s.off:end])
	s.off += n
	return n, nil
}

// TestScanCSVReadErrorMidStream fails the source in the middle of a line:
// every record read before the failure comes out, then the error, and the
// next Next resumes with the torn line completed.
func TestScanCSVReadErrorMidStream(t *testing.T) {
	rows := numberedRows(200)
	data := strings.Join(rows, "\n") + "\n"
	failAt := strings.Index(data, rows[150]) + 20
	for _, ra := range readAheads {
		t.Run(fmt.Sprintf("read-ahead %v", ra), func(t *testing.T) {
			c, events := eventReader(&failingSource{data: data, failAt: failAt}, 0, ra)
			for {
				rec, err := c.Next()
				if errors.Is(err, errFlaky) {
					break
				}
				if err != nil {
					t.Fatalf("after %d events: want %v, got %v", len(*events), errFlaky, err)
				}
				*events = append(*events, csvEvent{rec: rec})
			}
			want := referenceEvents(data)
			sameEvents(t, "before the failure", *events, want[:150])
			drain(t, c, events)
			c.FinishTail()
			sameEvents(t, "resumed", *events, want)
		})
	}
}

// TestScanCSVQuarantineOnCallerGoroutine counts quarantines and records in
// one unsynchronized counter while the producer runs ahead: under -race a
// quarantine delivered from the producer is a data race.
func TestScanCSVQuarantineOnCallerGoroutine(t *testing.T) {
	rows := numberedRows(400)
	for i := 0; i < len(rows); i += 7 {
		rows[i] = "garbled,row"
	}
	data := strings.Join(rows, "\n") + "\n"
	want := len(referenceEvents(data))
	for _, ra := range readAheads {
		c := scanner.NewScanCSV(strings.NewReader(data))
		if ra != (readAhead{}) {
			c.SetReadAhead(ra.rows, ra.chunks)
		}
		seen := 0
		c.OnQuarantine = func(reason, detail string) { seen++ }
		for {
			if _, err := c.Next(); err != nil {
				break
			}
			seen++
		}
		if seen != want {
			t.Fatalf("read-ahead %v: %d events, want %d", ra, seen, want)
		}
	}
}
