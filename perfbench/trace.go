package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/declog"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/store"
)

// Span names recorded at layer boundaries. A request's spans share its
// request ID; each span names the span that caused it.
const (
	spanClient    = "client"            // load generator round trip
	spanPDP       = "pdp.handler"       // a PDP node's ServeHTTP, decision paths
	spanPDPWrite  = "pdp.write_handler" // a PDP node's ServeHTTP, session and admin writes
	spanRouter    = "router.handler"    // the routing tier's ServeHTTP
	spanShardCall = "router.shard_call" // one router-to-shard round trip
)

// Headers carrying the trace context across the loopback hop.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// Span is one timed call into a layer.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef is the trace context a span hands to the calls it makes.
type spanRef struct{ req, id uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// Tracer keeps spans in memory for the traced run and the layer samples
// whose calls carry no request context (environment resolution, audit
// offer, journal records, replica fetches, sink uploads).
type Tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []Span

	EnvResolve   Samples
	AuditOffer   Samples
	StoreRecord  Samples
	SinkUpload   Samples
	SinkBytes    atomic.Int64
	SinkRecords  atomic.Int64
	ReplicaDelta atomic.Int64 // delta fetches
	ReplicaSnap  atomic.Int64 // full snapshot fetches
	// wakes records, per puller, when each watch answered with a new
	// generation, so install time runs from the wake to the apply.
	wakeMu sync.Mutex
	wakes  map[string][]time.Time
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), wakes: map[string][]time.Time{}}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *Tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *Tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Reset drops recorded spans and samples gathered so far (warm-up).
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	for _, s := range []*Samples{&t.EnvResolve, &t.AuditOffer, &t.StoreRecord, &t.SinkUpload} {
		s.mu.Lock()
		s.vals = nil
		s.mu.Unlock()
	}
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Handler wraps a node's handler in a span named name, parented on the
// caller's span from the request headers, and hands its own span to the
// calls the handler makes through the request context.
func (t *Tracer) Handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		if req == 0 {
			next.ServeHTTP(w, r) // untraced traffic: feed, admin, canaries
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		n := name
		if n == spanPDP && !strings.HasPrefix(r.URL.Path, "/v1/decide") && r.URL.Path != "/v1/check" {
			n = spanPDPWrite
		}
		s := Span{ID: t.newID(), Parent: parent, Req: req, Name: n, Start: t.now()}
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), spanRef{req: req, id: s.ID})))
		s.End = t.now()
		t.add(s)
	})
}

// Transport wraps an HTTP transport in spans named name for requests
// whose context carries a span, and forwards the trace context.
func (t *Tracer) Transport(name string, inner http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		ref, ok := spanFrom(r.Context())
		if !ok {
			return inner.RoundTrip(r)
		}
		s := Span{ID: t.newID(), Parent: ref.id, Req: ref.req, Name: name, Start: t.now()}
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, strconv.FormatUint(ref.req, 10))
		r.Header.Set(hdrSpan, strconv.FormatUint(s.ID, 10))
		resp, err := inner.RoundTrip(r)
		if err == nil {
			// The body is read after RoundTrip returns; the span ends when
			// the caller has read it.
			resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
				s.End = t.now()
				t.add(s)
			}}
			return resp, nil
		}
		s.End = t.now()
		t.add(s)
		return resp, err
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// spanBody ends its span once, at EOF or close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// timedEnv wraps the environment engine: every active-role resolution
// the core makes for a live-environment request is timed.
type timedEnv struct {
	inner core.ExpiringEnvironmentSource
	t     *Tracer
}

func (e timedEnv) ActiveEnvironmentRoles() []core.RoleID {
	start := time.Now()
	out := e.inner.ActiveEnvironmentRoles()
	e.t.EnvResolve.Add(time.Since(start))
	return out
}

func (e timedEnv) ExpiredContext() []string { return e.inner.ExpiredContext() }

// OfferHook returns the audit export hook timing each Exporter.Offer.
func (t *Tracer) OfferHook(e *declog.Exporter) func(audit.Record) {
	return func(rec audit.Record) {
		start := time.Now()
		e.Offer(rec)
		t.AuditOffer.Add(time.Since(start))
	}
}

// timedSink times each chunk upload and counts what it carried.
type timedSink struct {
	inner declog.Sink
	t     *Tracer
}

func (s timedSink) Upload(ctx context.Context, c declog.Chunk) error {
	start := time.Now()
	err := s.inner.Upload(ctx, c)
	s.t.SinkUpload.Add(time.Since(start))
	if err == nil {
		s.t.SinkBytes.Add(int64(len(c.Data)))
		s.t.SinkRecords.Add(int64(c.Records))
	}
	return err
}

// timedJournal times each durable WAL record (append + fsync) of the
// store it wraps. It forwards the group-commit wait too, so installing
// it changes no durability behaviour.
type timedJournal struct {
	inner *store.Durable
	t     *Tracer
}

func (j timedJournal) Record(m core.Mutation, export func() core.State) error {
	start := time.Now()
	err := j.inner.Record(m, export)
	j.t.StoreRecord.Add(time.Since(start))
	return err
}

func (j timedJournal) ObserveGeneration(gen uint64) { j.inner.ObserveGeneration(gen) }

func (j timedJournal) WaitDurable(gen uint64) error { return j.inner.WaitDurable(gen) }

// timedFetcher wraps a puller's HTTP feed client (keeping its delta
// capability) and records when each watch reports a new generation.
type timedFetcher struct {
	inner *replica.Client
	name  string
	t     *Tracer
}

func (f *timedFetcher) Snapshot(ctx context.Context) (replica.Snapshot, error) {
	f.t.ReplicaSnap.Add(1)
	return f.inner.Snapshot(ctx)
}

func (f *timedFetcher) Watch(ctx context.Context, epoch string, after uint64) (replica.WatchResponse, error) {
	resp, err := f.inner.Watch(ctx, epoch, after)
	if err == nil && resp.Generation > after {
		now := time.Now()
		f.t.wakeMu.Lock()
		f.t.wakes[f.name] = append(f.t.wakes[f.name], now)
		f.t.wakeMu.Unlock()
	}
	return resp, err
}

func (f *timedFetcher) Delta(ctx context.Context, epoch string, after uint64) (replica.Delta, error) {
	f.t.ReplicaDelta.Add(1)
	return f.inner.Delta(ctx, epoch, after)
}

// WakeAfter returns the first time puller name's watch reported a new
// generation at or after since.
func (t *Tracer) WakeAfter(name string, since time.Time) (time.Time, bool) {
	t.wakeMu.Lock()
	defer t.wakeMu.Unlock()
	for _, at := range t.wakes[name] {
		if !at.Before(since) {
			return at, true
		}
	}
	return time.Time{}, false
}
