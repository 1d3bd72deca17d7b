package scanner

// SetMemoCap shrinks every reader memo to n entries, so a test can fill
// them — and drive the empty-and-refill path — with a handful of rows.
func (c *ScanCSV) SetMemoCap(n int) { c.memoCap = n }

// SetReadAhead makes the read-ahead hand over chunks of rows lines, queue
// at least chunks of them and at most ceiling lines before it stops, and
// parse each chunk across workers, so a test can put chunk and worker
// boundaries between any two lines. A zero keeps that default. Call it
// before the first Next.
func (c *ScanCSV) SetReadAhead(rows, chunks, ceiling, workers int) {
	if rows > 0 {
		c.chunkRows = rows
	}
	if chunks > 0 {
		c.maxChunks = chunks
	}
	if ceiling > 0 {
		c.maxLines = ceiling
	}
	if workers > 0 {
		c.workers = make([]csvWorker, workers)
	}
}

// ReadAheadBound is how many lines a reader at the default read-ahead
// parses past the one its caller is at on an input that never changes its
// scan date: the chunk Next is delivering plus the ceiling.
const ReadAheadBound = readAheadCeiling + readAheadRows
