package api

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"covidkg/internal/docstore"
	"covidkg/internal/metrics"
)

// StatusClientClosedRequest is the (nginx-convention) status recorded
// when the client disconnected before the handler finished. The client
// never sees it; it exists so metrics and logs distinguish "we were too
// slow" (504) from "they hung up" (499).
const StatusClientClosedRequest = 499

// routeClass partitions routes by cost for admission control: each class
// has its own in-flight bound so a burst of expensive aggregations can
// never starve cheap lookups, and vice versa.
type routeClass int

const (
	classLight  routeClass = iota // point lookups, listings, metrics
	classSearch                   // query-pipeline routes (search engines, KG search)
	classHeavy                    // aggregate, ingest, full exports, bias audits
	numClasses
)

func (c routeClass) String() string {
	switch c {
	case classLight:
		return "light"
	case classSearch:
		return "search"
	case classHeavy:
		return "heavy"
	default:
		return "unknown"
	}
}

// Config tunes the request lifecycle: per-route-class deadlines and
// admission-control bounds. The zero value of any field falls back to
// its default, so callers only set what they care about.
type Config struct {
	// Per-class deadlines, applied to r.Context() before the handler
	// runs. Negative disables the deadline for that class.
	LightTimeout     time.Duration // default 2s — lookups, listings
	SearchTimeout    time.Duration // default 5s — search engines, KG search
	AggregateTimeout time.Duration // default 10s — aggregate, exports, bias
	IngestTimeout    time.Duration // default 30s — publication ingest

	// Per-class in-flight bounds; excess requests are shed with 429
	// rather than queued. Negative disables admission control for that
	// class.
	MaxInflightLight  int // default 256
	MaxInflightSearch int // default 64
	MaxInflightHeavy  int // default 8

	// RetryAfter is the back-off hint attached to admission-shed
	// responses.
	RetryAfter time.Duration // default 1s

	// Metrics receives the lifecycle counters/gauges (requests_shed,
	// requests_cancelled, deadline_exceeded, inflight_*) alongside the
	// request middleware metrics. Defaults to metrics.Default().
	Metrics *metrics.Registry
}

// DefaultConfig returns the production defaults described in DESIGN.md.
func DefaultConfig() Config {
	return Config{
		LightTimeout:      2 * time.Second,
		SearchTimeout:     5 * time.Second,
		AggregateTimeout:  10 * time.Second,
		IngestTimeout:     30 * time.Second,
		MaxInflightLight:  256,
		MaxInflightSearch: 64,
		MaxInflightHeavy:  8,
		RetryAfter:        time.Second,
		Metrics:           metrics.Default(),
	}
}

// withDefaults fills zero fields from DefaultConfig and normalizes
// negative sentinels ("disabled") to zero.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	pick := func(v, def time.Duration) time.Duration {
		if v < 0 {
			return 0 // explicit "no deadline"
		}
		if v == 0 {
			return def
		}
		return v
	}
	c.LightTimeout = pick(c.LightTimeout, d.LightTimeout)
	c.SearchTimeout = pick(c.SearchTimeout, d.SearchTimeout)
	c.AggregateTimeout = pick(c.AggregateTimeout, d.AggregateTimeout)
	c.IngestTimeout = pick(c.IngestTimeout, d.IngestTimeout)
	pickN := func(v, def int) int {
		if v < 0 {
			return 0 // explicit "unbounded"
		}
		if v == 0 {
			return def
		}
		return v
	}
	c.MaxInflightLight = pickN(c.MaxInflightLight, d.MaxInflightLight)
	c.MaxInflightSearch = pickN(c.MaxInflightSearch, d.MaxInflightSearch)
	c.MaxInflightHeavy = pickN(c.MaxInflightHeavy, d.MaxInflightHeavy)
	if c.RetryAfter <= 0 {
		c.RetryAfter = d.RetryAfter
	}
	if c.Metrics == nil {
		c.Metrics = d.Metrics
	}
	return c
}

// ---------------------------------------------------------- request ids

// ctxKey keys context values stored by this package.
type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDFromContext returns the request id attached by the server's
// middleware, or "" outside a request.
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// idSeq distinguishes requests within one process; the per-server random
// prefix distinguishes processes.
var idSeq atomic.Uint64

// newRequestIDPrefix returns a short random per-server prefix.
func newRequestIDPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeID keeps a caller-supplied X-Request-ID usable in headers,
// logs, and JSON: [A-Za-z0-9._-] only, capped at 64 bytes.
func sanitizeID(id string) string {
	if len(id) > 64 {
		id = id[:64]
	}
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			out = append(out, c)
		}
	}
	return string(out)
}

// requestIDMiddleware tags every request with an id — honoring a
// sanitized client-supplied X-Request-ID so distributed traces line up —
// stores it in the context for handlers and error envelopes, and echoes
// it in the response.
func (s *Server) requestIDMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = s.idPrefix + "-" + strconv.FormatUint(idSeq.Add(1), 36)
		}
		w.Header().Set("X-Request-ID", id)
		ctx := context.WithValue(r.Context(), requestIDKey, id)
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// ------------------------------------------------- admission + deadlines

// admitter bounds one route class's in-flight requests: a request
// takes a slot while fewer than capacity are held and is shed
// otherwise. It never blocks — under saturation the request is shed,
// not queued.
type admitter struct {
	inflight atomic.Int64
	capacity int64
}

// acquire takes an in-flight slot, or reports a shed.
func (a *admitter) acquire() bool {
	for {
		n := a.inflight.Load()
		if n >= a.capacity {
			return false
		}
		if a.inflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release returns an in-flight slot.
func (a *admitter) release() {
	a.inflight.Add(-1)
}

// acquire tries to take an in-flight slot for the class.
func (s *Server) acquire(class routeClass) bool {
	a := s.adms[class]
	if a == nil {
		return true
	}
	if !a.acquire() {
		return false
	}
	s.met.Gauge("inflight_" + class.String()).Inc()
	return true
}

// release returns an in-flight slot.
func (s *Server) release(class routeClass) {
	if a := s.adms[class]; a != nil {
		a.release()
		s.met.Gauge("inflight_" + class.String()).Dec()
	}
}

// lifecycle wraps a handler with the request lifecycle: admission
// control (shed with 429 + Retry-After when the class is at capacity),
// a per-class deadline layered onto the client's own cancellation, and
// cancel/deadline accounting after the handler returns.
func (s *Server) lifecycle(class routeClass, timeout time.Duration, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.acquire(class) {
			s.met.Counter("requests_shed").Inc()
			s.met.Counter("requests_shed." + class.String()).Inc()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
			writeErr(w, r, http.StatusTooManyRequests,
				errors.New("server overloaded; try again shortly"))
			return
		}
		defer s.release(class)

		ctx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		h(w, r.WithContext(ctx))

		// checked before the deferred cancel fires, so Canceled here can
		// only mean the client went away mid-request
		switch ctx.Err() {
		case context.DeadlineExceeded:
			s.met.Counter("deadline_exceeded").Inc()
		case context.Canceled:
			s.met.Counter("requests_cancelled").Inc()
		}
	}
}

// retryAfterSeconds renders the shed-response back-off hint in whole
// seconds, clamped to a minimum of 1: a sub-second configuration must
// not emit "Retry-After: 0", which clients read as "retry immediately"
// and turn into a tight retry storm against an overloaded server.
func retryAfterSeconds(d time.Duration) int {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// failStatus maps an error from context-aware work onto the right
// status: deadline expiry is the server's 504, client disconnect the
// conventional 499, a dark shard under a full scan (which cannot
// degrade to a partial answer) 503, anything else the handler's
// fallback.
func failStatus(err error, fallback int) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, docstore.ErrShardUnavailable):
		return http.StatusServiceUnavailable
	}
	return fallback
}
