package main

import (
	"context"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"learnedsqlgen/internal/estimator"
	"learnedsqlgen/internal/sqlast"
)

// span is one timed call into a layer, recorded from the benchmark side.
// Spans of one request share req; parent is the span that caused it.
type span struct {
	id, parent, req uint64
	name            string
	start, end      int64 // ns since the tracer started
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; pass the result to end.
func (t *tracer) begin(name string, parent span) span {
	if t == nil {
		return span{}
	}
	req := parent.req
	id := t.nextID.Add(1)
	if req == 0 {
		req = id
	}
	return span{id: id, parent: parent.id, req: req, name: name, start: int64(time.Since(t.t0))}
}

// end closes s and records it.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.end = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanStats aggregates the recorded spans of one name.
type spanStats struct {
	count       int
	total, self time.Duration
}

// mean is the mean span duration.
func (s spanStats) mean() time.Duration {
	if s.count == 0 {
		return 0
	}
	return s.total / time.Duration(s.count)
}

// summary aggregates every recorded span by name. Self time is a span's
// duration minus the part of it that the union of its children covers.
func (t *tracer) summary() map[string]spanStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]spanStats{}
	for _, s := range spans {
		d := time.Duration(s.end - s.start)
		st := out[s.name]
		st.count++
		st.total += d
		st.self += d - covered(s, children[s.id])
		out[s.name] = st
	}
	return out
}

// covered returns how much of parent's interval its children cover.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var sum, hi int64
	hi = parent.start
	for _, k := range kids {
		lo, e := max(k.start, hi), min(k.end, parent.end)
		if e > lo {
			sum += e - lo
			hi = e
		}
	}
	return time.Duration(sum)
}

// childrenOf sums the spans named name whose parent is a span named
// parentName: their count and total duration.
func (t *tracer) childrenOf(name, parentName string) (int, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parents := map[uint64]bool{}
	for _, s := range t.spans {
		if s.name == parentName {
			parents[s.id] = true
		}
	}
	n, d := 0, time.Duration(0)
	for _, s := range t.spans {
		if s.name == name && parents[s.parent] {
			n++
			d += time.Duration(s.end - s.start)
		}
	}
	return n, d
}

type spanKey struct{}

// withSpan carries s in ctx so that layers called with ctx can parent
// their spans on it.
func withSpan(ctx context.Context, s span) context.Context {
	if s.id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) span {
	s, _ := ctx.Value(spanKey{}).(span)
	return s
}

// timedBackend is the estimator backend the benchmark installs with
// rl.Env.SetBackend in traced runs. The environment's memoizing cache
// stays outermost, so every call here is a cache miss; while on, each one
// is recorded as an estimator.miss span parented on the span in its ctx.
type timedBackend struct {
	inner estimator.Backend
	tr    *tracer
	on    atomic.Bool
}

func (b *timedBackend) EstimateContext(ctx context.Context, st sqlast.Statement) (estimator.Estimate, error) {
	if !b.on.Load() {
		return b.inner.EstimateContext(ctx, st)
	}
	s := b.tr.begin("estimator.miss", spanFrom(ctx))
	est, err := b.inner.EstimateContext(ctx, st)
	b.tr.end(s)
	return est, err
}

// wireTap wraps the server's listener and counts, while on, the frames and
// bytes the server writes. The server writes every frame with exactly one
// Write call, so writes are frames. The first maxCaptured frames are kept
// for the encode/decode replay.
type wireTap struct {
	net.Listener
	on     atomic.Bool
	frames atomic.Int64
	bytes  atomic.Int64

	mu       sync.Mutex
	captured [][]byte
}

const maxCaptured = 4096

func (w *wireTap) Accept() (net.Conn, error) {
	c, err := w.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tappedConn{Conn: c, tap: w}, nil
}

type tappedConn struct {
	net.Conn
	tap *wireTap
}

func (c *tappedConn) Write(p []byte) (int, error) {
	if w := c.tap; w.on.Load() {
		w.frames.Add(1)
		w.bytes.Add(int64(len(p)))
		w.mu.Lock()
		if len(w.captured) < maxCaptured {
			w.captured = append(w.captured, append([]byte(nil), p...))
		}
		w.mu.Unlock()
	}
	return c.Conn.Write(p)
}
