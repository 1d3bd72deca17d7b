package main

// loadgen.go is the in-process load generator. Load is made inside the
// exec process over loopback HTTP: one goroutine per connection, each with
// its own seeded key stream, so a run with the same seed asks for the same
// URLs in the same per-connection order.
//
// Closed loop (the default): a connection sends its next request when the
// previous reply is complete — the consumers are analysts' scripts that wait
// for each reply. Open loop (rate > 0): requests are due on a fixed
// schedule, latency is timed from the due time, and how late the generator
// sent each one is reported beside it.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"retrodns/internal/serve"
)

// mixEntry is one endpoint's weight in a request mix.
type mixEntry struct {
	endpoint string
	weight   int
}

// timedPatterns are the pattern labels in the timed mix. "stable" is a
// multi-megabyte roster dump on a paper-scale corpus and "noisy" is empty on
// synth corpora; both are fetched once by the correctness pass instead.
var timedPatterns = []string{"T1", "T2", "transient", "transition"}

var (
	mixRead   = []mixEntry{{"domain", 70}, {"shortlist", 10}, {"funnel", 10}, {"patterns", 8}, {"healthz", 2}}
	mixFollow = []mixEntry{{"domain", 90}, {"funnel", 10}}
)

type loadConfig struct {
	base  string
	conns int
	warm  time.Duration
	dur   time.Duration
	think time.Duration
	// seg is the length of the segments the measured part is cut into for
	// the best-segment numbers (defaultSegment when zero).
	seg    time.Duration
	rate   float64 // open loop when > 0, requests per second over all connections
	mix    []mixEntry
	roster []string
	seed   int64
	// wantGen, when non-zero, is the generation every reply must carry.
	// Zero means the publisher is live: generations must be monotone per
	// connection instead.
	wantGen uint64
	// stop ends the loop early (the follow reader runs until the ingest
	// loop is done rather than for a fixed duration).
	stop <-chan struct{}
}

type loadResult struct {
	latUS []float64 // measured requests only
	endUS []float64 // when each of them completed, since the warm-up ended
	// segP50 and segQPS are each full segment's median latency and completed
	// requests per second, in time order.
	segP50    []float64
	segQPS    []float64
	lateUS    []float64 // open loop: send time minus due time
	bodySizes []float64
	requests  int64
	failed    int64
	elapsed   time.Duration
	firstErr  string
	endpoints map[string]*endpointAgg
	// bodyHash maps URL path to the FNV-64a of its body; a URL that ever
	// returns two different bodies under one generation is a failure.
	bodyHash map[string]uint64
}

func (r *loadResult) qps() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.requests) / r.elapsed.Seconds()
}

type worker struct {
	res     loadResult
	lastGen uint64
	buf     bytes.Buffer
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

var generationKey = []byte(`"generation": `)

// generationDigits locates the digits of the "generation" field every /v1
// body carries: body[j:k].
func generationDigits(body []byte) (j, k int, ok bool) {
	i := bytes.Index(body, generationKey)
	if i < 0 {
		return 0, 0, false
	}
	j = i + len(generationKey)
	k = j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	return j, k, true
}

func bodyGeneration(body []byte) (uint64, bool) {
	j, k, ok := generationDigits(body)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(string(body[j:k]), 10, 64)
	return v, err == nil
}

// fetch issues one GET and checks the reply: status 200, header generation
// equal to body generation. It returns the body (valid until the next
// fetch on the same worker) and the generation.
func (w *worker) fetch(client *http.Client, url string) ([]byte, uint64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	body := w.buf.Bytes()
	hdr, err := strconv.ParseUint(resp.Header.Get(serve.GenerationHeader), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: generation header %q", url, resp.Header.Get(serve.GenerationHeader))
	}
	gen, ok := bodyGeneration(body)
	if !ok || gen != hdr {
		return nil, 0, fmt.Errorf("%s: header generation %d, body generation %d", url, hdr, gen)
	}
	return body, gen, nil
}

func pickPath(mix []mixEntry, total int, roster []string, zipf *rand.Zipf, r *rand.Rand) (endpoint, path string) {
	n := r.Intn(total)
	for _, m := range mix {
		if n < m.weight {
			endpoint = m.endpoint
			break
		}
		n -= m.weight
	}
	switch endpoint {
	case "domain":
		return endpoint, "/v1/domain/" + roster[zipf.Uint64()]
	case "patterns":
		return endpoint, "/v1/patterns/" + timedPatterns[r.Intn(len(timedPatterns))]
	case "null":
		return endpoint, "/null"
	default:
		return endpoint, "/v1/" + endpoint
	}
}

// drive runs one load phase and merges the per-connection results.
func drive(cfg loadConfig) *loadResult {
	client := newHTTPClient(cfg.conns)
	defer client.CloseIdleConnections()

	total := 0
	for _, m := range cfg.mix {
		total += m.weight
	}
	start := time.Now()
	warmEnd := start.Add(cfg.warm)
	deadline := warmEnd.Add(cfg.dur)
	var nextDue atomic.Int64 // open loop: index of the next request to send
	interval := time.Duration(0)
	if cfg.rate > 0 {
		interval = time.Duration(float64(time.Second) / cfg.rate)
	}

	workers := make([]*worker, cfg.conns)
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{res: loadResult{endpoints: map[string]*endpointAgg{}, bodyHash: map[string]uint64{}}}
		workers[i] = w
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.seed + int64(id)*7919))
			var zipf *rand.Zipf
			if len(cfg.roster) > 1 {
				zipf = rand.NewZipf(r, 1.1, 1, uint64(len(cfg.roster)-1))
			}
			for {
				select {
				case <-cfg.stop:
					return
				default:
				}
				now := time.Now()
				t0 := now
				late := time.Duration(0)
				if interval > 0 {
					due := warmEnd.Add(time.Duration(nextDue.Add(1)-1) * interval)
					if due.After(deadline) {
						return
					}
					if wait := due.Sub(now); wait > 0 {
						time.Sleep(wait)
					}
					late = time.Since(due)
					t0 = due
				} else if now.After(deadline) {
					return
				}
				endpoint, path := pickPath(cfg.mix, total, cfg.roster, zipf, r)
				body, gen, err := w.fetch(client, cfg.base+path)
				elapsed := time.Since(t0)
				if t0.Before(warmEnd) {
					continue
				}
				agg := w.res.endpoints[endpoint]
				if agg == nil {
					agg = &endpointAgg{}
					w.res.endpoints[endpoint] = agg
				}
				w.res.requests++
				agg.Requests++
				if err == nil {
					err = w.checkReply(cfg, endpoint, path, body, gen)
				}
				if err != nil {
					w.res.failed++
					agg.Failed++
					if w.res.firstErr == "" {
						w.res.firstErr = err.Error()
					}
					continue
				}
				us := float64(elapsed.Nanoseconds()) / 1e3
				w.res.latUS = append(w.res.latUS, us)
				w.res.endUS = append(w.res.endUS, float64(t0.Add(elapsed).Sub(warmEnd).Nanoseconds())/1e3)
				w.res.bodySizes = append(w.res.bodySizes, float64(len(body)))
				agg.TotalMS += us / 1e3
				agg.Bytes += int64(len(body))
				if interval > 0 {
					w.res.lateUS = append(w.res.lateUS, float64(late.Nanoseconds())/1e3)
				}
				if cfg.think > 0 {
					time.Sleep(cfg.think)
				}
			}
		}(i)
	}
	wg.Wait()

	out := &loadResult{endpoints: map[string]*endpointAgg{}, bodyHash: map[string]uint64{}}
	out.elapsed = time.Since(warmEnd)
	for _, w := range workers {
		out.latUS = append(out.latUS, w.res.latUS...)
		out.endUS = append(out.endUS, w.res.endUS...)
		out.lateUS = append(out.lateUS, w.res.lateUS...)
		out.bodySizes = append(out.bodySizes, w.res.bodySizes...)
		out.requests += w.res.requests
		out.failed += w.res.failed
		if out.firstErr == "" {
			out.firstErr = w.res.firstErr
		}
		for ep, a := range w.res.endpoints {
			o := out.endpoints[ep]
			if o == nil {
				o = &endpointAgg{}
				out.endpoints[ep] = o
			}
			o.Requests += a.Requests
			o.Failed += a.Failed
			o.TotalMS += a.TotalMS
			o.Bytes += a.Bytes
		}
		for url, h := range w.res.bodyHash {
			if prev, ok := out.bodyHash[url]; ok && prev != h {
				out.failed++
				if out.firstErr == "" {
					out.firstErr = url + ": two connections saw different bodies under one generation"
				}
			}
			out.bodyHash[url] = h
		}
	}
	out.cutSegments(cfg.seg)
	return out
}

// defaultSegment is the closed loop's segment length: some 3 500 replies on
// the reference box, so a segment's rate and median are exact to a percent,
// and short enough that a few of a loop's segments fall between the
// reference box's bursts in its busy phases too.
const defaultSegment = 100 * time.Millisecond

// cutSegments cuts the measured part into segments of length seg and takes
// each full segment's median latency and rate. On a machine that only ever
// adds time the best segment is the loop on the quiet machine. A loop
// shorter than four segments is cut into four, a segment with under half the
// fullest one's replies is left out, and a loop with no reply in any full
// segment counts as one segment.
func (r *loadResult) cutSegments(seg time.Duration) {
	if seg <= 0 {
		seg = defaultSegment
	}
	if quarter := r.elapsed / 4; quarter < seg {
		seg = quarter
	}
	if seg <= 0 || len(r.latUS) == 0 {
		return
	}
	segUS := float64(seg.Nanoseconds()) / 1e3
	n := int(float64(r.elapsed.Nanoseconds()) / 1e3 / segUS)
	buckets := make([][]float64, n)
	first, last := make([]float64, n), make([]float64, n) // earliest and latest completion per segment
	for i, end := range r.endUS {
		b := int(end / segUS)
		if b < 0 || b >= n {
			continue
		}
		if len(buckets[b]) == 0 || end < first[b] {
			first[b] = end
		}
		last[b] = max(last[b], end)
		buckets[b] = append(buckets[b], r.latUS[i])
	}
	fullest := 0
	for _, b := range buckets {
		fullest = max(fullest, len(b))
	}
	for i, b := range buckets {
		// A segment most of which was a stall has too few replies for its
		// median to mean anything. The rate is taken between the segment's
		// first and last completion, not over its nominal length, so it is
		// not a multiple of 1/seg.
		if len(b) > 1 && len(b) >= fullest/2 && last[i] > first[i] {
			r.segP50 = append(r.segP50, median(b))
			r.segQPS = append(r.segQPS, float64(len(b)-1)/((last[i]-first[i])/1e6))
		}
	}
	if len(r.segP50) == 0 {
		r.segP50 = []float64{median(r.latUS)}
		r.segQPS = []float64{float64(len(r.latUS)) / r.elapsed.Seconds()}
	}
}

// checkReply applies the per-reply invariants beyond fetch's own: the
// generation is the published one (static publisher) or never goes back
// (live publisher), and a URL's body never changes under one generation.
func (w *worker) checkReply(cfg loadConfig, endpoint, path string, body []byte, gen uint64) error {
	if endpoint == "null" {
		return nil
	}
	if cfg.wantGen != 0 {
		if gen != cfg.wantGen {
			return fmt.Errorf("%s: generation %d, published %d", path, gen, cfg.wantGen)
		}
		if endpoint != "healthz" { // healthz carries the snapshot's age
			h := fnv.New64a()
			h.Write(body)
			sum := h.Sum64()
			if prev, ok := w.res.bodyHash[path]; ok && prev != sum {
				return fmt.Errorf("%s: body changed under generation %d", path, gen)
			}
			w.res.bodyHash[path] = sum
		}
		return nil
	}
	if gen < w.lastGen {
		return fmt.Errorf("%s: generation went back from %d to %d", path, w.lastGen, gen)
	}
	w.lastGen = gen
	return nil
}

// server is a loopback HTTP listener wrapping a handler the way retrodnsd
// does; close shuts it down and waits for Serve to return.
type server struct {
	base string
	srv  *http.Server
	done chan error
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		base: "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// nullHandler replies with a fixed 1 KB body: what the generator and
// net/http cost with no serve layer behind them.
func nullHandler() http.Handler {
	body := bytes.Repeat([]byte("x"), 1024)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("Content-Type", "application/json; charset=utf-8")
		h.Set(serve.GenerationHeader, "1")
		w.Write(generationKey)
		w.Write([]byte("1\n"))
		w.Write(body)
	})
}
