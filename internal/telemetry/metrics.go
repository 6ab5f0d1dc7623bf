package telemetry

import (
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// routeOther is the metrics bucket for requests that matched no registered
// pattern — typos, scanners, and anything answered by the mux's built-in 404.
const routeOther = "other"

// servedRoutes lists every route pattern the handler registers,
// method-stripped — the fixed label universe of the per-route RED metrics.
// Bounding the set at construction keeps the middleware allocation-free (no
// label strings are built per request) and keeps scrape cardinality immune
// to request-path garbage.
var servedRoutes = []string{
	"/healthz",
	"/readyz",
	"/metrics",
	"/api/v1/sessions",
	"/api/v1/sessions/{id}",
	"/api/v1/sessions/{id}/result",
	"/api/v1/sessions/{id}/timeseries",
	"/api/v1/sessions/{id}/events",
	"/api/v1/campaigns",
	"/api/v1/campaigns/{id}",
	"/api/v1/campaigns/{id}/results",
	"/api/v1/results/{key}",
	"/api/v1/trace",
	"/api/v1/", // the enveloped 404 catch-all
	routeOther,
}

// statusClasses are the response-code label values of http.requests_total:
// exact codes would multiply series per route for no alerting value.
var statusClasses = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// routeStats holds one route's RED counters: request count per status
// class, an error count (4xx+5xx), and the duration histogram. Everything
// is atomic; the middleware only ever adds.
type routeStats struct {
	requests [6]atomic.Uint64
	errors   atomic.Uint64
	duration *Histogram
}

func (rs *routeStats) record(status int, d time.Duration) {
	class := status / 100
	if class < 1 || class > 5 {
		class = 0
	}
	rs.requests[class].Add(1)
	if class >= 4 {
		rs.errors.Add(1)
	}
	rs.duration.Observe(d)
}

// serverMetrics is the serving plane's own instrumentation: per-route RED
// metrics plus the pool latency histograms. It is always on — every path is
// a handful of atomic adds — so there is no enabled flag to get wrong.
type serverMetrics struct {
	routes map[string]*routeStats // keyed by method-stripped pattern

	// queueWait measures submit->dequeue (observed when a worker picks the
	// session up, so an endless session still contributes its wait).
	queueWait *Histogram
	// serviceTime measures dequeue->finalize.
	serviceTime *Histogram
}

func newServerMetrics() *serverMetrics {
	m := &serverMetrics{
		routes:      make(map[string]*routeStats, len(servedRoutes)),
		queueWait:   NewHistogram(),
		serviceTime: NewHistogram(),
	}
	for _, r := range servedRoutes {
		m.routes[r] = &routeStats{duration: NewHistogram()}
	}
	return m
}

// record books one finished request under its route pattern.
func (m *serverMetrics) record(route string, status int, d time.Duration) {
	rs := m.routes[route]
	if rs == nil {
		rs = m.routes[routeOther]
	}
	rs.record(status, d)
}

// requestSets renders the RED counters as labeled metric sets for /metrics.
// Routes that never served a request are skipped.
func (m *serverMetrics) requestSets() []MetricSet {
	sets := make([]MetricSet, 0, len(servedRoutes))
	for _, route := range servedRoutes {
		rs := m.routes[route]
		for class, name := range statusClasses {
			if n := rs.requests[class].Load(); n > 0 {
				sets = append(sets, MetricSet{
					Labels:  map[string]string{"route": route, "code": name},
					Metrics: map[string]uint64{"http.requests_total": n},
				})
			}
		}
		if n := rs.errors.Load(); n > 0 {
			sets = append(sets, MetricSet{
				Labels:  map[string]string{"route": route},
				Metrics: map[string]uint64{"http.errors_total": n},
			})
		}
	}
	return sets
}

// histogramFamilies renders the duration histograms for /metrics.
func (m *serverMetrics) histogramFamilies() []HistogramFamily {
	durations := HistogramFamily{
		Name: "http.request_duration_seconds",
		Help: "HTTP request duration by route, seconds.",
	}
	for _, route := range servedRoutes {
		durations.Series = append(durations.Series, LabeledHistogram{
			Labels: map[string]string{"route": route},
			Hist:   m.routes[route].duration,
		})
	}
	return []HistogramFamily{
		durations,
		{Name: "serve.queue_wait_seconds",
			Help:   "Session wait between submission and a worker picking it up, seconds.",
			Series: []LabeledHistogram{{Hist: m.queueWait}}},
		{Name: "serve.service_time_seconds",
			Help:   "Session wall-clock run time between dequeue and finalize, seconds.",
			Series: []LabeledHistogram{{Hist: m.serviceTime}}},
	}
}

// statusWriter captures the response status — and the mux pattern that
// matched, stashed by the route-capture wrapper in Handler — for metrics and
// logging while delegating everything else. It forwards Flush so the SSE
// streams keep working through the wrapper, and is pooled so steady-state
// requests allocate nothing in the metrics layer.
type statusWriter struct {
	http.ResponseWriter
	status  int
	pattern string
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

// routeOf maps a captured mux pattern to its metrics route: the pattern with
// any method prefix stripped (so "GET /healthz" and a future "POST /healthz"
// share a series), or routeOther when no registered handler ran — the mux's
// built-in 404 and redirects. Pure slicing — no allocation.
func routeOf(pattern string) string {
	if pattern == "" {
		return routeOther
	}
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		pattern = pattern[i+1:]
	}
	return pattern
}

// instrument is the metrics middleware: it times the request, captures the
// status and matched route through a pooled statusWriter (the route-capture
// wrapper in Handler stashes http.Request.Pattern on it, because the mux
// only stamps the pattern on the cloned request its handlers see), books
// the RED counters, and emits the request log line. On the steady-state
// read path it adds zero heap allocations over the bare mux (guarded by
// TestMetricsMiddlewareZeroAlloc); the log line costs nothing when the
// logger's level is off because LogAttrs short-circuits on Enabled. It sits
// inside withRequestID so the log can carry the ID.
func (sv *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := statusWriterPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status, sw.pattern = w, 0, ""
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		route := routeOf(sw.pattern)
		sv.metrics.record(route, status, elapsed)
		// Scrape and probe traffic logs at Debug, API traffic at Info.
		level := slog.LevelInfo
		if !strings.HasPrefix(route, "/api/") {
			level = slog.LevelDebug
		}
		if sv.log.Enabled(r.Context(), level) {
			sv.log.LogAttrs(r.Context(), level, "http request",
				slog.String("request_id", RequestIDFrom(r.Context())),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", status),
				slog.Duration("elapsed", elapsed),
			)
		}
		sw.ResponseWriter = nil
		statusWriterPool.Put(sw)
	})
}

// withRequestID stamps every request with an ID — taken from an inbound
// X-Request-Id header so an upstream proxy's ID survives, minted otherwise —
// echoes it on the response, and carries it in the request context for the
// request log and the session/campaign lifecycle logs. This is the outermost
// layer and the one place the server allocates per request (an ID string and
// a derived context); instrument inside it stays allocation-free.
func (sv *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = sv.reqIDs.next()
		}
		w.Header().Set("X-Request-Id", id)
		next.ServeHTTP(w, r.WithContext(ContextWithRequestID(r.Context(), id)))
	})
}
