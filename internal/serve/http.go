package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"retrodns/internal/dnscore"
)

// GenerationHeader carries the snapshot generation a response was built
// from; it always equals the "generation" field of the JSON body, because
// both come from the one snapshot pointer the request loaded.
const GenerationHeader = "X-Retrodns-Generation"

const contentTypeJSON = "application/json; charset=utf-8"

var contentTypeValue = []string{contentTypeJSON}

// setOKHeaders stamps a success response's two headers with shared value
// slices — net/http only reads them — so no request allocates one. Both
// keys are in canonical form already, so the map is assigned directly.
func setOKHeaders(h http.Header, snap *Snapshot) {
	h["Content-Type"] = contentTypeValue
	h[GenerationHeader] = snap.genValue
}

// errorDoc is the JSON error envelope.
type errorDoc struct {
	Error      string `json:"error"`
	Generation uint64 `json:"generation,omitempty"`
}

// parseRoute resolves a URL path to its /v1 endpoint and, where the
// endpoint takes one, its path key (domain name or pattern label). It
// stands in for net/http's ServeMux on the request path: the
// five-endpoint API needs only a prefix cut and a switch, which costs no
// allocations and no per-request handler-map walk. Unknown paths,
// including anything outside /v1/, return ok=false.
func parseRoute(path string) (endpoint, key string, ok bool) {
	rest, found := strings.CutPrefix(path, "/v1/")
	if !found {
		return "", "", false
	}
	switch rest {
	case "shortlist", "funnel", "healthz":
		return rest, "", true
	}
	if key, found := strings.CutPrefix(rest, "domain/"); found &&
		key != "" && !strings.Contains(key, "/") {
		return "domain", key, true
	}
	if key, found := strings.CutPrefix(rest, "patterns/"); found &&
		key != "" && !strings.Contains(key, "/") {
		return "patterns", key, true
	}
	return "", "", false
}

// Handler returns the /v1 API: five read endpoints over the published
// snapshot. Each request loads the snapshot pointer exactly once, so the
// whole response — headers included — reflects a single generation even
// while Publish swaps underneath. Mount it at the server root (routes
// are absolute) alongside whatever else the process serves.
func (e *Engine) Handler() http.Handler { return e }

// ServeHTTP serves one request: route parse, method gate, then the
// per-endpoint concerns — request counting, the global and per-tenant
// rate limiters, the no-snapshot-yet gate, and latency/error metrics.
// The snapshot is loaded here, once, and handed down — handlers never
// touch e.snap themselves — and the request is never mutated. The clock
// is only read when something needs it (a limiter or the latency
// histogram), so an uninstrumented, unlimited engine serves without a
// single time.Now call.
func (e *Engine) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	endpoint, key, ok := parseRoute(r.URL.Path)
	if !ok {
		writeError(w, http.StatusNotFound,
			"unknown endpoint; have /v1/domain/{name} /v1/shortlist /v1/funnel /v1/patterns/{label} /v1/healthz", 0)
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "method not allowed; use GET", 0)
		return
	}
	e.requests[endpoint].Add(1)
	m := e.met[endpoint]
	m.requests.Inc()

	var start time.Time
	timed := m.latency != nil
	if timed || e.limiter != nil || e.tenants != nil {
		start = e.now()
	}

	code := http.StatusOK
	switch {
	case e.limiter != nil && !e.limiter.allow(start):
		e.ratelimited.Inc()
		code = http.StatusTooManyRequests
		writeError(w, code, "rate limit exceeded", 0)
	case e.tenants != nil && !e.tenants.allow(r.Header.Get(TenantHeader), start):
		e.ratelimited.Inc()
		code = http.StatusTooManyRequests
		writeError(w, code, "tenant rate limit exceeded", 0)
	default:
		snap := e.snap.Load()
		if snap == nil && endpoint != "healthz" {
			code = http.StatusServiceUnavailable
			writeError(w, code, "no snapshot published yet", 0)
			break
		}
		switch endpoint {
		case "domain":
			code = e.handleDomain(w, key, snap)
		case "shortlist":
			code = e.serveRendered(w, snap, snap.shortlistBody, snap.shortlist)
		case "funnel":
			code = e.serveRendered(w, snap, snap.funnelBody, snap.funnel)
		case "patterns":
			code = e.handlePatterns(w, key, snap)
		case "healthz":
			code = e.handleHealthz(w, snap)
		}
	}
	if code >= 400 && e.reg != nil {
		e.reg.Counter(MetricServeErrors, "endpoint", endpoint, "code", strconv.Itoa(code)).Inc()
	}
	if timed {
		m.latency.Observe(e.now().Sub(start).Seconds())
	}
}

// serveBody writes a pre-rendered body: two header sets and one Write,
// nothing else — the zero-copy fast path every prerendered endpoint
// takes.
func (e *Engine) serveBody(w http.ResponseWriter, snap *Snapshot, body []byte) int {
	setOKHeaders(w.Header(), snap)
	w.Write(body)
	return http.StatusOK
}

// serveRendered serves body when the snapshot prerendered it, else
// renders doc.
func (e *Engine) serveRendered(w http.ResponseWriter, snap *Snapshot, body []byte, doc any) int {
	if body != nil {
		return e.serveBody(w, snap, body)
	}
	return e.serveDoc(w, snap, doc)
}

// serveDoc renders doc with encoding/json and writes it: the reference
// mode's per-request path, and the fallback for a body the build could
// not render.
func (e *Engine) serveDoc(w http.ResponseWriter, snap *Snapshot, doc any) int {
	body, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "render: "+err.Error(), snap.Generation)
		return http.StatusInternalServerError
	}
	return e.serveBody(w, snap, append(body, '\n'))
}

// writeError emits the JSON error envelope.
func writeError(w http.ResponseWriter, code int, msg string, gen uint64) {
	h := w.Header()
	h.Set("Content-Type", contentTypeJSON)
	if gen > 0 {
		h.Set(GenerationHeader, strconv.FormatUint(gen, 10))
	}
	w.WriteHeader(code)
	body, _ := json.MarshalIndent(errorDoc{Error: msg, Generation: gen}, "", "  ")
	w.Write(append(body, '\n'))
}

// domainBufs recycles the buffers templated domain bodies are assembled
// in; Write does not retain its argument, so one goes back as it returns.
var domainBufs = sync.Pool{New: func() any { return new([]byte) }}

// handleDomain serves /v1/domain/{name}.
func (e *Engine) handleDomain(w http.ResponseWriter, raw string, snap *Snapshot) int {
	// A name already in canonical form — what every listing hands out —
	// skips ParseName's lower-casing and label split.
	name := dnscore.Name(raw)
	if !dnscore.IsCanonical(raw) {
		var err error
		if name, err = dnscore.ParseName(raw); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad domain name: %v", err), snap.Generation)
			return http.StatusBadRequest
		}
	}
	return e.serveDomain(w, name, snap)
}

// serveDomain writes one indexed domain's document: in the reference mode
// rendered on request, else from the snapshot — whole, or head +
// generation + mid + name + the history's shared tail assembled in a
// pooled buffer and written with the same single Write.
func (e *Engine) serveDomain(w http.ResponseWriter, name dnscore.Name, snap *Snapshot) int {
	if doc, ok := snap.docs[name]; ok {
		return e.serveDoc(w, snap, doc)
	}
	ref, ok := snap.bodies[name]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("domain %s not in snapshot", name), snap.Generation)
		return http.StatusNotFound
	}
	if ref < 0 {
		return e.serveBody(w, snap, snap.rendered[^ref])
	}
	buf := domainBufs.Get().(*[]byte)
	body := append((*buf)[:0], domainHead...)
	body = append(body, snap.genHeader...)
	body = append(body, domainMid...)
	body = append(body, name...)
	body = append(body, snap.tails[ref]...)
	e.serveBody(w, snap, body)
	*buf = body
	domainBufs.Put(buf)
	return http.StatusOK
}

// handlePatterns serves /v1/patterns/{label}. Labels are matched
// case-insensitively against PatternLabels.
func (e *Engine) handlePatterns(w http.ResponseWriter, raw string, snap *Snapshot) int {
	label := strings.ToLower(raw)
	if label == "t1" || label == "t2" {
		label = strings.ToUpper(label)
	}
	doc, ok := snap.patterns[label]
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown pattern label %q; have %s", raw, strings.Join(PatternLabels, " ")),
			snap.Generation)
		return http.StatusNotFound
	}
	return e.serveRendered(w, snap, snap.patternsBody[label], doc)
}

// HealthDoc is the /v1/healthz response: liveness plus snapshot
// freshness — which generation is being served, how many swaps got it
// there, how old it is, and how recent its data is.
type HealthDoc struct {
	Status             string  `json:"status"`
	Generation         uint64  `json:"generation"`
	Swaps              uint64  `json:"swaps"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	Domains            int     `json:"domains"`
	LastScan           string  `json:"last_scan,omitempty"`
}

// handleHealthz serves /v1/healthz, rendered per call: age moves every call.
// Before the first Publish it reports status "empty" with 503 so load
// balancers hold traffic until a snapshot exists.
func (e *Engine) handleHealthz(w http.ResponseWriter, snap *Snapshot) int {
	doc := HealthDoc{Status: "ok"}
	code := http.StatusOK
	if snap == nil {
		doc.Status = "empty"
		code = http.StatusServiceUnavailable
	} else {
		doc.Generation = snap.Generation
		if !snap.Built.IsZero() {
			doc.SnapshotAgeSeconds = e.now().Sub(snap.Built).Seconds()
		}
		doc.Domains = snap.Domains()
		if snap.hasLastScan {
			doc.LastScan = snap.lastScan.String()
		}
	}
	doc.Swaps = e.swaps.Load()
	h := w.Header()
	h.Set("Content-Type", contentTypeJSON)
	h.Set(GenerationHeader, strconv.FormatUint(doc.Generation, 10))
	w.WriteHeader(code)
	body, _ := json.MarshalIndent(doc, "", "  ")
	w.Write(append(body, '\n'))
	return code
}
