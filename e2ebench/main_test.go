package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"learnedsqlgen/internal/rl"
	"learnedsqlgen/internal/service"
)

func domainOf(c rl.Constraint) string { return service.DomainKey(service.DomainFor(c, 4)) }

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		want, pct float64
	}{
		{n: 1000, want: 990, pct: 0.99}, // p99 leaves exactly 10 beyond it
		{n: 2000, want: 1980, pct: 0.99},
		{n: 500, want: 490, pct: 0.98}, // highest percentile with 10 beyond
		{n: 21, want: 11, pct: 11.0 / 21},
		{n: 12, want: 6, pct: 0.5}, // too few samples: the median
		{n: 1, want: 1, pct: 1},
	} {
		v, pct := tail(seq(tc.n), 0.99)
		if v != tc.want || pct != tc.pct {
			t.Errorf("tail(1..%d, 0.99) = %v at p%v, want %v at p%v", tc.n, v, pct, tc.want, tc.pct)
		}
	}
	if v, _ := tail(nil, 0.99); v != 0 {
		t.Errorf("tail(empty) = %v, want 0", v)
	}
	if m := median(seq(10)); m != 5 {
		t.Errorf("median(1..10) = %v, want 5", m)
	}

	// Three windows of 1000; a stall in the last one moves one window's
	// tail, not the median of the three.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i%1000 + 1)
	}
	for i := 2980; i < 3000; i++ {
		xs[i] = 1e6
	}
	if v, pct, w := windowedTail(xs, 0.99); v != 990 || pct != 0.99 || w != 3 {
		t.Errorf("windowedTail = %v at p%v over %d windows, want 990 at p0.99 over 3", v, pct, w)
	}
	if v, _, w := windowedTail(seq(1500), 0.99); w != 1 || v != 1485 {
		t.Errorf("windowedTail(1..1500) = %v over %d windows, want the plain tail 1485 over 1", v, w)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	offA, reqA := schedule(serveInteractive, 7, 2*time.Second)
	offB, reqB := schedule(serveInteractive, 7, 2*time.Second)
	if len(offA) < 100 || !reflect.DeepEqual(offA, offB) || !reflect.DeepEqual(reqA, reqB) {
		t.Fatalf("seed 7 gave different open-loop schedules (%d vs %d arrivals)", len(offA), len(offB))
	}
	offC, reqC := schedule(serveInteractive, 8, 2*time.Second)
	if reflect.DeepEqual(offA, offC) || reflect.DeepEqual(reqA, reqC) {
		t.Fatal("seeds 7 and 8 gave the same open-loop schedule")
	}

	mix := func(seed int64) (out []any) {
		mx := newMix(serveSearch, seed, 20)
		for k := 0; k < 50; k++ {
			out = append(out, mx.next())
		}
		return out
	}
	if !reflect.DeepEqual(mix(7), mix(7)) || reflect.DeepEqual(mix(7), mix(8)) {
		t.Fatal("closed-loop constraint mix does not follow the seed")
	}
	if !reflect.DeepEqual(trainSeeds(7, 10*time.Second), trainSeeds(7, 10*time.Second)) {
		t.Fatal("training seeds do not follow the seed")
	}
}

// TestMixDomains checks that every family of a mix stays inside one
// registry domain, which is what keeps set-up work independent of the seed.
func TestMixDomains(t *testing.T) {
	for _, spec := range []serveSpec{serveInteractive, serveSearch} {
		for i, f := range spec.families {
			want := domainOf(constraintOf(f(0)))
			for _, u := range []float64{0.1, 0.5, 0.9, 0.999999} {
				if got := domainOf(constraintOf(f(u))); got != want {
					t.Fatalf("%s family %d spans domains %s and %s", spec.name, i, want, got)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that the metrics the program prints are the
// ones BENCHMARK.json declares.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
	for _, tc := range []struct {
		declared []struct{ Name, Unit, Better string }
		defs     []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(tc.declared) != len(tc.defs) {
			t.Fatalf("%d metrics declared, %d measured", len(tc.declared), len(tc.defs))
		}
		for i, d := range tc.declared {
			if got := (metricDef{d.Name, d.Unit, d.Better}); got != tc.defs[i] {
				t.Errorf("declared %v, measured %v", got, tc.defs[i])
			}
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the outputs pass and every declared metric is printed. Two untraced
// runs of one seed must check the same streams.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: time.Second, trace: trace}
			res, err := runWorkload(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w, trace, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			var out bytes.Buffer
			if err := res.write(&out, io.Discard, trace); err != nil {
				t.Errorf("%s trace=%v: %v", w, trace, err)
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}

	digest := func() any {
		res, err := runWorkload(context.Background(), options{workload: "serve-interactive", seed: 5, seconds: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.details {
			if s, ok := d["streams"]; ok {
				return s
			}
		}
		t.Fatal("no streams detail")
		return nil
	}
	if a, b := digest(), digest(); !reflect.DeepEqual(a, b) {
		t.Errorf("two runs of seed 5 checked different streams: %v vs %v", a, b)
	}
}
