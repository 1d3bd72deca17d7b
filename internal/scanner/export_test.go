package scanner

// SetMemoCap shrinks every reader memo to n entries, so a test can fill
// them — and drive the empty-and-refill path — with a handful of rows.
func (c *ScanCSV) SetMemoCap(n int) { c.memoCap = n }

// SetReadAhead makes the read-ahead hand over chunks of rows records and
// stop once chunks of them are queued, so a test can put chunk boundaries
// between any two lines. Call it before the first Next.
func (c *ScanCSV) SetReadAhead(rows, chunks int) { c.chunkRows, c.maxChunks = rows, chunks }

// ReadAheadBound is how many rows a reader at the default chunking parses
// past the one its caller is at: the chunk Next is delivering plus a full
// queue.
const ReadAheadBound = (readAheadChunks + 1) * readAheadRows
