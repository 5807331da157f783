// Command e2ebench is the repository benchmark. It runs one named
// workload in-process for a given seed and prints its metrics as one JSON
// object on the last line of standard output:
//
//	e2ebench --workload serve-search --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a second, traced phase. README.md lists
// the workloads, the metrics and what each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"
)

type metricDef struct{ name, unit, better string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"first_row_p50_ms", "ms", "lower"},
	{"first_row_p99_ms", "ms", "lower"},
	{"request_p50_ms", "ms", "lower"},
	{"request_p99_ms", "ms", "lower"},
	{"slo_goodput_rps", "1/s", "higher"},
	{"rows_per_s", "1/s", "higher"},
	{"accuracy", "ratio", "higher"},
	{"success_frac", "ratio", "higher"},
	{"time_to_50_satisfied_s", "s", "lower"},
	{"episodes_per_s", "1/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.inflight_max", "count", "lower"},
	{"wire.frames_per_request", "count", "lower"},
	{"wire.bytes_per_row", "B", "lower"},
	{"wire.encode_ns_per_frame", "ns", "lower"},
	{"wire.decode_ns_per_frame", "ns", "lower"},
	{"service.front_door_ms_per_request", "ms", "lower"},
	{"service.registry_acquire_us", "us", "lower"},
	{"service.registry_trains", "count", "lower"},
	{"service.registry_evictions", "count", "lower"},
	{"service.refused", "count", "lower"},
	{"meta.pretrain_s_per_entry", "s", "lower"},
	{"rl.sampler_ms_per_request", "ms", "lower"},
	{"rl.attempts_per_row", "count", "lower"},
	{"rl.prefix_hit_rate", "ratio", "higher"},
	{"rl.episodes_per_s", "1/s", "higher"},
	{"rl.unattributed_frac", "ratio", "lower"},
	{"rl.rollout_share", "ratio", "higher"},
	{"rl.update_ms_per_batch", "ms", "lower"},
	{"nn.actor_step_ns", "ns", "lower"},
	{"nn.actor_steps_per_episode", "count", "lower"},
	{"fsm.valid_ns_per_token", "ns", "lower"},
	{"fsm.apply_ns_per_token", "ns", "lower"},
	{"estimator.cache_hit_rate", "ratio", "higher"},
	{"estimator.cache_evictions", "count", "lower"},
	{"estimator.miss_us", "us", "lower"},
	{"estimator.measures_per_episode", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

func lookup(name string) (metricDef, bool) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func higherIsBetter(name string) bool {
	d, _ := lookup(name)
	return d.better == "higher"
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports. Its exported fields are the final
// JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes    []string
	details  []map[string]any
	problems []string
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// zero sets per-layer metrics of layers the workload does not run.
func (r *result) zero(names ...string) {
	for _, n := range names {
		d, _ := lookup(n)
		r.set(n, d.unit, 0)
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// detail adds a JSON line printed before the result.
func (r *result) detail(key string, v any) { r.details = append(r.details, map[string]any{key: v}) }

// check records a failed output check; the run then reports correct=false.
func (r *result) check(err error) {
	if err == nil {
		return
	}
	r.Correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

// write prints the detail lines and then the result line holding exactly
// the metrics of the mode.
func (r *result) write(stdout, stderr io.Writer, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := *r
	out.Metrics = map[string]metric{}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			return fmt.Errorf("metric %s (%s) not measured", d.name, d.unit)
		}
		out.Metrics[d.name] = m
	}
	for _, n := range r.notes {
		fmt.Fprintln(stderr, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}
	enc := json.NewEncoder(stdout)
	for _, d := range r.details {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return enc.Encode(out)
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

var workloads = []string{"serve-interactive", "serve-search", "train-scratch"}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed; every input of the run derives from it")
	seconds := fs.Int("seconds", 10, "measured seconds per phase")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced phase instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	switch {
	case !contains(workloads, o.workload):
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	case *seconds < 1:
		return o, errors.New("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return o, errors.New("--trace must be 0 or 1")
	}
	return o, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// runWorkload runs one workload and measures the process's peak heap.
func runWorkload(ctx context.Context, o options) (*result, error) {
	heap := startHeapPeak()
	var res *result
	var err error
	switch o.workload {
	case "serve-interactive":
		res, err = runServe(ctx, serveInteractive, o)
	case "serve-search":
		res, err = runServe(ctx, serveSearch, o)
	default:
		res, err = runTrain(ctx, o)
	}
	if peak := heap.stop(); res != nil {
		res.set("peak_heap_mb", "MB", peak/(1<<20))
	}
	return res, err
}

// heapPeak samples, every few milliseconds, the bytes the last garbage
// collection found live, and keeps the largest value of each one-second
// window. The median of those peaks is the run's peak heap: the single
// largest value depends on where collections happen to fall, and varies
// far more from run to run.
type heapPeak struct {
	quit, done chan struct{}
	peaks      []float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		cur, windowEnd := 0.0, time.Now().Add(time.Second)
		for {
			metrics.Read(sample)
			cur = max(cur, float64(sample[0].Value.Uint64()))
			if now := time.Now(); now.After(windowEnd) {
				h.peaks = append(h.peaks, cur)
				cur, windowEnd = 0, now.Add(time.Second)
			}
			select {
			case <-h.quit:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, cur)
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapPeak) stop() float64 {
	close(h.quit)
	<-h.done
	return median(h.peaks)
}

// stamp identifies the host, toolchain and source a result was measured on.
func stamp() map[string]any {
	sha, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_sha":    sha,
		"git_dirty":  dirty,
		"series":     "e2ebench runs are the first measured with nproc > 1; BENCH_*.json snapshots were recorded at num_cpu 1",
	}
}

// runTimeout bounds a whole run, so a hang exits non-zero in time.
const runTimeout = 170 * time.Second

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %s\n", runTimeout)
		os.Exit(1)
	})
	res, err := runWorkload(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res.details = append([]map[string]any{{"stamp": stamp()}}, res.details...)
	if err := res.write(os.Stdout, os.Stderr, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}
