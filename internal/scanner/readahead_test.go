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
	"retrodns/internal/simtime"
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
// up where the caller left off. At the default read-ahead the input has one
// scan date, or past the records the caller takes no well-formed row at
// all, so the ceiling bounds it; the small chunkings read a scan per row,
// so the floor does.
func TestScanCSVAbandonedReaderStops(t *testing.T) {
	for _, tc := range []struct {
		ra    readAhead
		bound int // rows parsed past the caller's
		rows  []string
	}{
		{readAhead{}, scanner.ReadAheadBound, numberedRows(scanner.ReadAheadBound + 5000)},
		{readAhead{}, scanner.ReadAheadBound, garbledAfter(2, numberedRows(scanner.ReadAheadBound+5000))},
		{readAhead{rows: 3, chunks: 2}, 3 * 3, datedRows(100, 1)},
		{readAhead{rows: 3, chunks: 2, workers: 3}, 3 * 3, datedRows(100, 1)},
		{readAhead{rows: 1, chunks: 1}, 1 * 2, datedRows(20, 1)},
	} {
		t.Run(fmt.Sprintf("read-ahead %v", tc.ra), func(t *testing.T) {
			rows := tc.rows
			src := &lineSource{data: strings.Join(scanner.ScanCSVHeader, ",") + "\n" + strings.Join(rows, "\n") + "\n"}
			ahead, c, events := abandonAfter(t, src, tc.ra, 2)
			if ahead > tc.bound || ahead < 0 {
				t.Fatalf("read %d lines past the caller's, bound %d", ahead, tc.bound)
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

// abandonAfter reads taken records of src through a reader at ra, walks
// away, and returns how many lines past the caller's the reader pulled from
// src by the time its producer stopped, and the records it took.
func abandonAfter(t *testing.T, src *lineSource, ra readAhead, taken int) (int, *scanner.ScanCSV, *[]csvEvent) {
	t.Helper()
	base := runtime.NumGoroutine()
	c, events := eventReader(src, 0, ra)
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
	return src.lines - 1 - taken, c, events
}

// garbledAfter garbles every row of rows past the first n.
func garbledAfter(n int, rows []string) []string {
	for i := n; i < len(rows); i++ {
		rows[i] = "garbled,row"
	}
	return rows
}

// TestScanCSVReadAheadCeiling reads an input whose scan date never changes,
// and one whose lines past the records the caller takes are all malformed:
// past the floor the read-ahead runs on to the ceiling and stops there,
// neither short of it nor a chunk past it. A quarantined line counts toward
// the ceiling as a record does.
func TestScanCSVReadAheadCeiling(t *testing.T) {
	const taken = 2
	for _, ra := range []readAhead{
		{rows: 64, chunks: 2, ceiling: 1000},
		{rows: 64, chunks: 2, ceiling: 1000, workers: 4},
		{rows: 5, chunks: 1, ceiling: 23, workers: 2},
	} {
		for _, garbled := range []bool{false, true} {
			t.Run(fmt.Sprintf("read-ahead %v, garbled %v", ra, garbled), func(t *testing.T) {
				rows := numberedRows(ra.ceiling + 3*ra.rows)
				if garbled {
					rows = garbledAfter(taken, rows)
				}
				src := &lineSource{data: strings.Join(scanner.ScanCSVHeader, ",") + "\n" + strings.Join(rows, "\n") + "\n"}
				ahead, c, events := abandonAfter(t, src, ra, taken)
				// The producer stops once the queue holds the ceiling's lines
				// in whole chunks, and the chunk Next is delivering may have
				// been queued or taken by then.
				if lo, hi := ra.ceiling-taken, ra.rows-taken+ra.ceiling+ra.rows-1; ahead < lo || ahead > hi {
					t.Fatalf("read %d lines past the caller's %d, want %d..%d", ahead, taken, lo, hi)
				}
				drain(t, c, events)
				c.FinishTail()
				sameEvents(t, "resumed", *events, referenceEvents(strings.Join(rows, "\n")+"\n"))
			})
		}
	}
}

// datedRows is scans consecutive weekly scans of perScan valid rows each.
func datedRows(scans, perScan int) []string {
	rows := numberedRows(scans * perScan)
	for i := range rows {
		date := simtime.Date(7 * (1 + i/perScan)).Time().Format("2006-01-02")
		rows[i] = date + rows[i][len("2017-01-08"):]
	}
	return rows
}

// TestScanCSVReadAheadScanWide reads four scans of 50 rows in chunks of 8
// and walks away inside the first, the second and the last: the read-ahead
// parses the whole scan after the caller's and stops in the chunk that
// starts the one after that, never further.
func TestScanCSVReadAheadScanWide(t *testing.T) {
	const perScan, chunk = 50, 8
	rows := datedRows(4, perScan)
	data := strings.Join(scanner.ScanCSVHeader, ",") + "\n" + strings.Join(rows, "\n") + "\n"
	for _, workers := range []int{1, 2, 4} {
		for _, tc := range []struct {
			taken   int // records the caller takes, none straddling a chunk into its scan
			nextEnd int // the line the scan after the caller's ends on
		}{
			{2, 2 * perScan},
			{60, 3 * perScan},
			{160, 4 * perScan},
		} {
			ra := readAhead{rows: chunk, chunks: 2, workers: workers}
			t.Run(fmt.Sprintf("read-ahead %v, taken %d", ra, tc.taken), func(t *testing.T) {
				src := &lineSource{data: data}
				ahead, c, events := abandonAfter(t, src, ra, tc.taken)
				end := min(tc.nextEnd+chunk-1, len(rows))
				if read := tc.taken + ahead; read < min(tc.nextEnd+1, len(rows)) || read > end {
					t.Fatalf("read %d lines, want the scan ending on line %d whole and at most %d", read, tc.nextEnd, end)
				}
				drain(t, c, events)
				c.FinishTail()
				sameEvents(t, "resumed", *events, referenceEvents(strings.Join(rows, "\n")+"\n"))
			})
		}
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
		c.SetReadAhead(ra.rows, ra.chunks, ra.ceiling, ra.workers)
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
