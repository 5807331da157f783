package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"learnedsqlgen/client"
	"learnedsqlgen/internal/rl"
	"learnedsqlgen/internal/service"
	"learnedsqlgen/internal/wire"
)

// serveSpec is one workload against the generation service.
type serveSpec struct {
	name string
	// families is the constraint mix. Every draw of one family falls in
	// the same registry domain, so set-up pre-trains the same entries
	// whatever the seed.
	families    []family
	rows        func(rng *rand.Rand) int
	maxAttempts int // 0 selects the server default
	// rate is the open-loop Poisson arrival rate in requests per second;
	// 0 runs a closed loop with one client per connection, each sending
	// perClient requests per second of the run's length. A fixed count,
	// rather than a deadline, keeps the work of a seed the same however
	// fast the host is.
	rate      float64
	perClient float64
	warmup    int           // untimed warm-up requests in every set-up
	slo       time.Duration // first-row limit of slo_goodput_rps
	// check is how many requests the stream checks serve twice and replay
	// straight from the sampler; profile replaces it in traced runs.
	check, profile int
	headline       string // end-to-end metric trace.overhead_frac compares
}

// family maps u ∈ [0, 1) to one request of the family.
type family func(u float64) client.Request

// interactiveRate is about half of what the service sustains for this mix
// on 2 cores with the client in the same process.
const interactiveRate = 300

var serveInteractive = serveSpec{
	name:     "serve-interactive",
	families: []family{wideRange("cardinality"), wideRange("cost")},
	rows:     func(rng *rand.Rand) int { return 1 + rng.Intn(8) },
	rate:     interactiveRate,
	warmup:   400,
	slo:      20 * time.Millisecond,
	check:    16,
	profile:  200,
	headline: "request_p50_ms",
}

var serveSearch = serveSpec{
	name: "serve-search",
	families: []family{
		point("cardinality", 15, 95), point("cardinality", 110, 450),
		narrow("cost", 40, 80), narrow("cost", 110, 800), narrow("cost", 1100, 8000),
	},
	rows:        func(*rand.Rand) int { return 2 },
	maxAttempts: 4000,
	perClient:   48,
	warmup:      40,
	slo:         250 * time.Millisecond,
	check:       4,
	profile:     20,
	headline:    "rows_per_s",
}

// wideRange gives easy ranges: every realistic query satisfies most of
// them. The integer part of 9u picks the lower bound, its fraction the
// upper.
func wideRange(metric string) family {
	return func(u float64) client.Request {
		lo, frac := math.Modf(9 * u)
		return client.Request{Dataset: "tpch", Metric: metric, IsRange: true,
			Lo: 1 + lo, Hi: math.Round(logSpan(2e5, 1e6, frac))}
	}
}

// point gives point targets (±10%) inside one decade.
func point(metric string, lo, hi float64) family {
	return func(u float64) client.Request {
		return client.Request{Dataset: "tpch", Metric: metric, Point: math.Round(logSpan(lo, hi, u))}
	}
}

// narrow gives [x, 1.2x] ranges with x inside one decade.
func narrow(metric string, lo, hi float64) family {
	return func(u float64) client.Request {
		x := math.Round(logSpan(lo, hi, u))
		return client.Request{Dataset: "tpch", Metric: metric, IsRange: true, Lo: x, Hi: math.Round(1.2 * x)}
	}
}

// golden is the step of the Weyl sequence a mix draws a family's values
// from.
const golden = 0.6180339887498949

// mix is one client's seeded request sequence. Families take turns, so
// every run sends them in the same proportions. Within a family the
// values follow a Weyl sequence from a seeded start: the draws of any run
// cover the family's range evenly, so seeds change the values sent but
// hardly how hard the mix is.
type mix struct {
	spec  serveSpec
	rng   *rand.Rand
	start []float64 // per family
	k     int       // requests drawn so far
}

// newMix returns the mix of random stream n fanned out of seed.
func newMix(spec serveSpec, seed int64, n uint64) *mix {
	m := &mix{spec: spec, rng: newRand(seed, n)}
	for range spec.families {
		m.start = append(m.start, m.rng.Float64())
	}
	return m
}

func (m *mix) next() client.Request {
	f, j := m.k%len(m.spec.families), m.k/len(m.spec.families)
	m.k++
	_, u := math.Modf(m.start[f] + float64(j)*golden)
	r := m.spec.families[f](u)
	r.N = m.spec.rows(m.rng)
	r.MaxAttempts = m.spec.maxAttempts
	return r
}

// Service settings: the `sqlgen serve` defaults without a checkpoint
// directory.
const (
	setupReps          = 3
	defaultMaxAttempts = 1000
)

func newServer(seed int64) (*service.Server, error) {
	return service.New(service.Config{
		Datasets:           []service.DatasetSpec{{Name: "tpch", Scale: 0.1}},
		Seed:               seed,
		SampleValues:       100,
		K:                  4,
		WarmRounds:         3,
		WarmEpisodes:       24,
		DefaultMaxAttempts: defaultMaxAttempts,
		DrainTimeout:       10 * time.Second,
	})
}

// samplerConfig is the configuration the service samples requests under.
func samplerConfig(seed int64) rl.Config {
	cfg := rl.FastConfig()
	cfg.Seed = seed
	return cfg
}

// serveEnv is one running server with its loopback listener.
type serveEnv struct {
	srv      *service.Server
	ds       *service.Dataset
	addr     string
	tap      *wireTap      // traced runs only
	timed    *timedBackend // traced runs only
	serveErr chan error
	pretrain []time.Duration // per registry entry
}

// setupServe starts a server, pre-trains the registry entry of every
// family in the mix and runs the warm-up requests.
func setupServe(ctx context.Context, spec serveSpec, seed int64, tr *tracer) (*serveEnv, error) {
	srv, err := newServer(rl.FanSeed(seed, 1))
	if err != nil {
		return nil, err
	}
	e := &serveEnv{srv: srv, ds: srv.Dataset("tpch"), serveErr: make(chan error, 1)}
	if tr != nil {
		e.timed = &timedBackend{inner: e.ds.Env.Est, tr: tr}
		e.ds.Env.SetBackend(e.timed)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = ln.Addr().String()
	if tr != nil {
		e.tap = &wireTap{Listener: ln}
		ln = e.tap
	}
	go func() { e.serveErr <- srv.Serve(ln) }()

	for _, f := range spec.families {
		t0 := time.Now()
		entry, err := srv.Registry().Acquire(ctx, e.ds, constraintOf(f(0)))
		if err != nil {
			e.close()
			return nil, fmt.Errorf("pre-train: %w", err)
		}
		srv.Registry().Release(entry)
		e.pretrain = append(e.pretrain, time.Since(t0))
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := dial(e.addr, rl.FanSeed(seed, uint64(210+i)))
			if err != nil {
				errs[i] = err
				return
			}
			defer conn.Close()
			mx := newMix(spec, seed, uint64(200+i))
			for n := i; n < spec.warmup && errs[i] == nil; n += 2 {
				r := &request{req: mx.next()}
				r.serve(conn, nil)
				errs[i] = r.err
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// fillLimit bounds the time fillCache may take.
const fillLimit = 30 * time.Second

// fillCache samples episodes of the served actors for the workload's mix
// straight through the dataset's environment, two goroutines at a time,
// until the estimator cache is full. The measured phase then starts in the
// steady state of a long-running server: a cache that evicts and a live
// heap that no longer grows. Left to fill during the measured phase, the
// growing heap lengthens every garbage collection and the latency tail
// drifts upwards through the run.
func (e *serveEnv) fillCache(ctx context.Context, spec serveSpec, seed int64, res *result) error {
	env, reg := e.ds.Env, e.srv.Registry()
	ctx, cancel := context.WithTimeout(ctx, fillLimit)
	defer cancel()
	t0 := time.Now()
	var wg sync.WaitGroup
	var episodes atomic.Int64
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mx := newMix(spec, seed, uint64(400+i))
			for k := uint64(0); ; k++ {
				if st := env.CacheStats(); st.Size >= st.Capacity || ctx.Err() != nil {
					return
				}
				c := constraintOf(mx.next())
				entry, err := reg.Acquire(ctx, e.ds, c)
				if err != nil {
					errs[i] = err
					return
				}
				cfg := samplerConfig(rl.FanSeed(seed, 1000*uint64(410+i)+k))
				cfg.Workers = 1
				actor := entry.ActorFor(c)
				batch, err := rl.NewSampler(env, c, cfg).SampleBatchContext(ctx, actor, actor.BOS(), cfg.BatchSize, false, false)
				reg.Release(entry)
				if err != nil && ctx.Err() == nil {
					errs[i] = err
					return
				}
				episodes.Add(int64(len(batch)))
			}
		}()
	}
	wg.Wait()
	st := env.CacheStats()
	res.note("cache fill: %d episodes in %.2fs, %d of %d entries", episodes.Load(), time.Since(t0).Seconds(), st.Size, st.Capacity)
	return errors.Join(errs...)
}

func (e *serveEnv) close() {
	e.srv.Shutdown(context.Background())
	<-e.serveErr
}

func dial(addr string, seed int64) (*client.Conn, error) {
	return client.Dial(addr, &client.Config{Seed: seed, Name: "e2ebench"})
}

// request is one Generate request and everything observed about it.
type request struct {
	req    client.Request
	seed   int64  // session seed of its connection
	id     uint64 // request id on its connection
	due    time.Time
	rowAt  []time.Time
	sqls   []string
	dig    digest
	found  int
	tries  int // episodes the server attempted (Done.Attempts)
	done   time.Time
	err    error
	stream *client.Stream
	span   span
}

// send issues the request. Connections number requests in send order.
func (r *request) send(conn *client.Conn, tr *tracer) {
	r.seed = conn.Seed()
	r.dig = newDigest()
	r.span = tr.begin("request", span{})
	g := tr.begin("client.generate", r.span)
	r.stream, r.err = conn.Generate(context.Background(), r.req)
	tr.end(g)
	if r.err != nil {
		r.done = time.Now()
		tr.end(r.span)
	}
}

// consume reads the stream to its end.
func (r *request) consume(tr *tracer) {
	if r.stream == nil {
		return
	}
	for r.stream.Next() {
		row := r.stream.Row()
		r.rowAt = append(r.rowAt, time.Now())
		r.sqls = append(r.sqls, row.SQL)
		r.dig.add(row.SQL, row.Measured)
	}
	r.done = time.Now()
	r.err = r.stream.Err()
	r.found, r.tries, _ = r.stream.Stats()
	r.stream = nil
	tr.end(r.span)
}

// serve sends the request due now and waits for it to end.
func (r *request) serve(conn *client.Conn, tr *tracer) {
	r.due = time.Now()
	r.send(conn, tr)
	r.consume(tr)
}

// phase is one measured run of the workload.
type phase struct {
	start, end  time.Time // end is the last completion
	window      time.Duration
	reqs        []*request
	lateMs      []float64
	inflightMax int64
	backlog     int64
}

// runPhase dials two sessions and drives the workload through them for
// dur. Every phase sends the same arrivals and constraint mix; phase p
// has its own session seeds, so its streams do not repeat an earlier
// phase's queries.
func (e *serveEnv) runPhase(spec serveSpec, seed int64, p uint64, dur time.Duration, tr *tracer) (*phase, error) {
	var conns [2]*client.Conn
	for i := range conns {
		c, err := dial(e.addr, rl.FanSeed(seed, 100*p+10+uint64(i)))
		if err != nil {
			return nil, err
		}
		defer c.Close()
		conns[i] = c
	}
	if spec.rate > 0 {
		return openLoop(spec, conns, seed, dur, tr)
	}
	return closedLoop(spec, conns, seed, int(spec.perClient*dur.Seconds()), tr)
}

// openLoop sends seeded Poisson arrivals on schedule, alternating between
// the connections, whether or not earlier requests have finished. Each
// request is timed from when it was due.
func openLoop(spec serveSpec, conns [2]*client.Conn, seed int64, dur time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	offsets, reqs := schedule(spec, seed, dur)
	for _, r := range reqs {
		ph.reqs = append(ph.reqs, &request{req: r})
	}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	var ids [2]uint64
	ph.start = time.Now()
	for i, r := range ph.reqs {
		c := i % 2
		ids[c]++
		r.id = ids[c]
		r.due = ph.start.Add(offsets[i])
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		ph.lateMs = append(ph.lateMs, ms(time.Since(r.due)))
		ph.inflightMax = max(ph.inflightMax, inflight.Add(1))
		r.send(conns[c], tr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			r.consume(tr)
		}()
	}
	ph.window = time.Since(ph.start)
	ph.backlog = inflight.Load()
	err := wait(&wg, conns)
	ph.finish()
	return ph, err
}

// schedule returns the open loop's arrival offsets and requests for seed.
func schedule(spec serveSpec, seed int64, dur time.Duration) ([]time.Duration, []client.Request) {
	arrivals, mx := newRand(seed, 1), newMix(spec, seed, 2)
	var offsets []time.Duration
	var reqs []client.Request
	var at time.Duration
	for {
		at += time.Duration(arrivals.ExpFloat64() / spec.rate * float64(time.Second))
		if at >= dur {
			return offsets, reqs
		}
		offsets = append(offsets, at)
		reqs = append(reqs, mx.next())
	}
}

// closedLoop runs one client per connection, each sending its next
// request as soon as the previous one ends, n requests in all.
func closedLoop(spec serveSpec, conns [2]*client.Conn, seed int64, n int, tr *tracer) (*phase, error) {
	ph := &phase{inflightMax: int64(len(conns))}
	var wg sync.WaitGroup
	var per [2][]*request
	ph.start = time.Now()
	for i := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mx := newMix(spec, seed, 20+uint64(i))
			for id := uint64(1); id <= uint64(n); id++ {
				r := &request{req: mx.next(), id: id}
				r.serve(conns[i], tr)
				per[i] = append(per[i], r)
			}
		}()
	}
	err := wait(&wg, conns)
	ph.window = time.Since(ph.start)
	ph.reqs = append(per[0], per[1]...)
	ph.finish()
	return ph, err
}

// wait joins a phase's requests. Requests that have not ended a minute
// after the last send fail with their connection.
func wait(wg *sync.WaitGroup, conns [2]*client.Conn) error {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-time.After(time.Minute):
		err = errors.New("requests still running a minute after the last send")
		for _, c := range conns {
			c.Close()
		}
		<-done
	}
	return err
}

// finish records when the phase's last request ended.
func (ph *phase) finish() {
	for _, r := range ph.reqs {
		if r.done.After(ph.end) {
			ph.end = r.done
		}
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// accounting classifies every request sent.
type accounting struct {
	Sent      int            `json:"sent"`
	Succeeded int            `json:"succeeded"`
	Refused   map[string]int `json:"refused"` // by wire error code
	Errored   int            `json:"errored"`
	Short     int            `json:"short"` // ended with found < N
	Backlog   int64          `json:"backlog"`
}

func (a *accounting) add(r *request) (ok bool) {
	a.Sent++
	var se *client.ServerError
	switch {
	case errors.As(r.err, &se):
		if a.Refused == nil {
			a.Refused = map[string]int{}
		}
		a.Refused[se.Code]++
	case r.err != nil:
		a.Errored++
	case r.found < r.req.N:
		a.Short++
	default:
		a.Succeeded++
		return true
	}
	return false
}

// e2e computes the end-to-end metrics of a phase.
func (ph *phase) e2e(spec serveSpec, out *result) accounting {
	acc := accounting{Backlog: ph.backlog}
	var first, total []float64
	var rowTimes []float64
	good, rows, found, tries := 0, 0, 0, 0
	reqs := append([]*request(nil), ph.reqs...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due.Before(reqs[j].due) })
	for _, r := range reqs {
		ok := acc.add(r)
		if r.err != nil {
			continue
		}
		total = append(total, ms(r.done.Sub(r.due)))
		found += r.found
		tries += r.tries
		rows += len(r.rowAt)
		if len(r.rowAt) > 0 {
			f := r.rowAt[0].Sub(r.due)
			first = append(first, ms(f))
			if ok && f <= spec.slo {
				good++
			}
		}
		for _, t := range r.rowAt {
			rowTimes = append(rowTimes, t.Sub(ph.start).Seconds())
		}
	}
	wall := ph.end.Sub(ph.start).Seconds()
	setLatency(out, "first_row", first)
	setLatency(out, "request", total)
	out.set("slo_goodput_rps", "1/s", float64(good)/ph.window.Seconds())
	out.set("rows_per_s", "1/s", ratio(float64(rows), wall))
	out.set("accuracy", "ratio", ratio(float64(found), float64(tries)))
	out.set("success_frac", "ratio", ratio(float64(acc.Succeeded), float64(acc.Sent)))
	out.set("time_to_50_satisfied_s", "s", timeTo50(rowTimes))
	out.set("episodes_per_s", "1/s", ratio(float64(tries), wall))
	out.note("%s: %d requests in %.2fs, %d rows, first-row n=%d, request n=%d", spec.name,
		len(ph.reqs), wall, rows, len(first), len(total))
	return acc
}

// setLatency sets <prefix>_p50_ms and <prefix>_p99_ms from xs, which are
// in the order their requests were due.
func setLatency(out *result, prefix string, xs []float64) {
	out.detail("RAW_"+prefix, append([]float64(nil), xs...))
	v, pct, windows := windowedTail(xs, 0.99)
	out.set(prefix+"_p99_ms", "ms", v)
	out.set(prefix+"_p50_ms", "ms", median(xs))
	out.note("%s tail: p%.1f of %d samples, median over %d windows", prefix, pct*100, len(xs), windows)
}

// timeTo50 splits the delivered rows, by arrival time in seconds, into
// consecutive blocks of 50 and returns the median time a block took.
func timeTo50(at []float64) float64 {
	sort.Float64s(at)
	var blocks []float64
	prev := 0.0
	for k := 49; k < len(at); k += 50 {
		blocks = append(blocks, at[k]-prev)
		prev = at[k]
	}
	return median(blocks)
}

// runServe runs a service workload: set-up (repeated, median reported),
// the measured phase, and in traced runs a second, traced phase followed
// by the per-layer analysis. Output checks run in both modes.
func runServe(ctx context.Context, spec serveSpec, o options) (*result, error) {
	res := newResult()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var env *serveEnv
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		e, err := setupServe(ctx, spec, o.seed, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	defer env.close()
	res.set("setup_s", "s", median(setups))

	if fill := os.Getenv("E2E_FILL"); fill != "" {
		d, _ := time.ParseDuration(fill)
		c0 := env.ds.Env.CacheStats()
		if _, err := env.runPhase(spec, o.seed, 7, d, nil); err != nil {
			return nil, err
		}
		c1 := env.ds.Env.CacheStats()
		res.note("fill: size %d evictions %d", c1.Size, c1.Evictions-c0.Evictions)
	}
	ph, err := env.runPhase(spec, o.seed, 0, o.seconds, nil)
	if err != nil {
		return nil, err
	}
	acc := ph.e2e(spec, res)
	phases := []*phase{ph}
	if o.trace {
		tph, tacc, err := env.tracedPhase(spec, o, tr, res)
		if err != nil {
			return nil, err
		}
		phases = append(phases, tph)
		acc.Sent += tacc.Sent
		acc.Succeeded += tacc.Succeeded
	}
	res.Attempted, res.Failed = acc.Sent, acc.Sent-acc.Succeeded
	res.detail("accounting", acc)

	for _, p := range phases {
		for _, r := range p.reqs {
			c := constraintOf(r.req)
			for _, sql := range r.sqls {
				res.check(checkRow(env.ds.Env.Est, c, sql))
			}
		}
	}
	if err := env.checkStreams(ctx, spec, o, ph, tr, res); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedPhase runs the workload again with the wire tap, the estimator
// timing backend and the client spans on, and sets the per-layer metrics
// observed on the live service.
func (e *serveEnv) tracedPhase(spec serveSpec, o options, tr *tracer, res *result) (*phase, accounting, error) {
	env := e.ds.Env
	c0 := env.CacheStats()
	e.timed.on.Store(true)
	e.tap.on.Store(true)
	ph, err := e.runPhase(spec, o.seed, 1, o.seconds, tr)
	e.tap.on.Store(false)
	if err != nil {
		return nil, accounting{}, err
	}
	c1 := env.CacheStats()
	miss := tr.summary()["estimator.miss"]

	traced := newResult()
	acc := ph.e2e(spec, traced)
	res.set("trace.overhead_frac", "ratio", overhead(spec.headline, res, traced))

	requests, rows := len(ph.reqs), 0
	for _, r := range ph.reqs {
		rows += len(r.rowAt)
	}
	late, _ := tail(ph.lateMs, 0.99)
	res.set("loadgen.late_p99_ms", "ms", late)
	res.set("loadgen.inflight_max", "count", float64(ph.inflightMax))
	res.set("wire.frames_per_request", "count", ratio(float64(e.tap.frames.Load()+int64(requests)), float64(requests)))
	res.set("wire.bytes_per_row", "B", ratio(float64(e.tap.bytes.Load()), float64(rows)))
	enc, dec, err := wireReplay(e.tap.captured)
	if err != nil {
		return nil, acc, err
	}
	res.set("wire.encode_ns_per_frame", "ns", enc)
	res.set("wire.decode_ns_per_frame", "ns", dec)
	refused := 0
	for _, n := range acc.Refused {
		refused += n
	}
	res.set("service.refused", "count", float64(refused))
	hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
	res.set("estimator.cache_hit_rate", "ratio", ratio(float64(hits), float64(hits+misses)))
	res.set("estimator.cache_evictions", "count", float64(c1.Evictions-c0.Evictions))
	res.set("estimator.miss_us", "us", miss.mean().Seconds()*1e6)
	st := e.srv.Registry().Stats()
	res.set("service.registry_trains", "count", float64(st.Trains))
	res.set("service.registry_evictions", "count", float64(st.Evictions))
	pre := make([]float64, len(e.pretrain))
	for i, d := range e.pretrain {
		pre[i] = d.Seconds()
	}
	res.set("meta.pretrain_s_per_entry", "s", mean(pre))
	res.zero("rl.rollout_share", "rl.update_ms_per_batch")
	return ph, acc, nil
}

// overhead compares the traced phase's headline metric with the untraced
// phase's: the fraction by which tracing made it worse.
func overhead(name string, untraced, traced *result) float64 {
	u, t := untraced.Metrics[name].Value, traced.Metrics[name].Value
	if higherIsBetter(name) {
		return ratio(u, t) - 1
	}
	return ratio(t, u) - 1
}

// wireReplay decodes the captured frames with wire.Reader and re-encodes
// the decoded messages with wire.WriteMessage, returning the mean cost per
// frame of each.
func wireReplay(frames [][]byte) (encNs, decNs float64, err error) {
	if len(frames) == 0 {
		return 0, 0, errors.New("wire tap captured no frames")
	}
	raw := bytes.Join(frames, nil)
	reps := max(1, 50000/len(frames))
	msgs := make([]wire.Message, len(frames))
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		rd := wire.NewReader(bytes.NewReader(raw), 0)
		for i := range msgs {
			if msgs[i], err = rd.ReadMessage(); err != nil {
				return 0, 0, fmt.Errorf("wire replay: %w", err)
			}
		}
	}
	n := float64(reps * len(frames))
	decNs = float64(time.Since(t0)) / n
	t0 = time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, m := range msgs {
			if err := wire.WriteMessage(io.Discard, m); err != nil {
				return 0, 0, fmt.Errorf("wire replay: %w", err)
			}
		}
	}
	return float64(time.Since(t0)) / n, decNs, nil
}

// checkStreams verifies that streams are deterministic and that the
// service adds nothing to them: sampled live streams must equal a direct
// sampler replay of their (session seed, request id), and a set of
// requests served twice on fresh sessions of one seed must give the same
// streams as each other and as two direct replays. In traced runs the
// second served and direct runs are timed for the front-door cost and the
// direct one is profiled layer by layer.
func (e *serveEnv) checkStreams(ctx context.Context, spec serveSpec, o options, ph *phase, tr *tracer, res *result) error {
	combined := newDigest()
	step := max(1, len(ph.reqs)/spec.check)
	for i := 0; i < len(ph.reqs); i += step {
		r := ph.reqs[i]
		if r.err != nil {
			continue
		}
		d, err := e.direct(ctx, nil, nil, r.req, r.seed, r.id)
		if err != nil {
			return err
		}
		res.check(sameStream("live stream vs direct replay", r.dig, d.dig))
		combined.add(fmt.Sprint(r.dig.h), 0)
	}

	n := spec.check
	var prof *samplerProfile
	if o.trace {
		n, prof = spec.profile, &samplerProfile{}
	}
	seed := rl.FanSeed(o.seed, 310)
	var conns [2]*client.Conn
	for i := range conns {
		c, err := dial(e.addr, seed)
		if err != nil {
			return err
		}
		defer c.Close()
		conns[i] = c
	}
	mx := newMix(spec, o.seed, 302)
	var served, direct []float64
	for id := uint64(1); id <= uint64(n); id++ {
		req := mx.next()
		a := &request{req: req}
		a.serve(conns[0], nil)
		d1, err := e.direct(ctx, nil, nil, req, seed, id)
		if err != nil {
			return err
		}
		b := &request{req: req}
		b.serve(conns[1], nil)
		d2, err := e.direct(ctx, tr, prof, req, seed, id)
		if err != nil {
			return err
		}
		if a.err != nil || b.err != nil {
			return fmt.Errorf("check request: %w", errors.Join(a.err, b.err))
		}
		res.check(sameStream("served twice", a.dig, b.dig))
		res.check(sameStream("served vs direct replay", a.dig, d1.dig))
		res.check(sameStream("direct replayed twice", d1.dig, d2.dig))
		combined.add(fmt.Sprint(a.dig.h), 0)
		served = append(served, ms(b.done.Sub(b.due)))
		direct = append(direct, ms(d2.took))
	}
	res.detail("streams", map[string]any{"checked": n, "digest": fmt.Sprintf("%016x", combined.h)})
	if prof == nil {
		return nil
	}
	res.set("service.front_door_ms_per_request", "ms", mean(served)-mean(direct))
	res.set("service.registry_acquire_us", "us", tr.summary()["service.acquire"].mean().Seconds()*1e6)
	prof.layerMetrics(tr, res)
	return nil
}

// direct serves req for (session seed, id) without the service front door:
// Registry().Acquire, ActorFor, a sampler seeded with FanSeed(seed, id),
// StreamSatisfied — what a session does per request. With prof set the
// sampler run is profiled.
func (e *serveEnv) direct(ctx context.Context, tr *tracer, prof *samplerProfile, req client.Request, seed int64, id uint64) (directRun, error) {
	c := constraintOf(req)
	t0 := time.Now()
	a := tr.begin("service.acquire", span{})
	entry, err := e.srv.Registry().Acquire(ctx, e.ds, c)
	tr.end(a)
	acquired := time.Since(t0)
	if err != nil {
		return directRun{}, err
	}
	defer e.srv.Registry().Release(entry)
	maxAttempts := req.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = defaultMaxAttempts
	}
	cfg := samplerConfig(rl.FanSeed(seed, id))
	run, err := sampleDirect(ctx, tr, e.ds.Env, entry.ActorFor(c), c, cfg, req.N, maxAttempts)
	run.took += acquired
	if err != nil || prof == nil {
		return run, err
	}
	return run, prof.add(ctx, tr, e.ds.Env, entry.ActorFor(c), c, cfg, maxAttempts, run)
}

func sameStream(what string, a, b digest) error {
	if a != b {
		return fmt.Errorf("%s: stream digests differ (%016x vs %016x)", what, a.h, b.h)
	}
	return nil
}
