package scanner

// SetMemoCap shrinks every reader memo to n entries, so a test can fill
// them — and drive the empty-and-refill path — with a handful of rows.
func (c *ScanCSV) SetMemoCap(n int) { c.memoCap = n }
