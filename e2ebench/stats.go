package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"learnedsqlgen/internal/rl"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// rank returns the nearest-rank index of percentile q in n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(i, n-1))
}

// median returns the 50th percentile of xs (sorted in place); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), 0.5)]
}

// tail returns the value at the highest percentile no higher than want that
// still has at least minTail samples beyond it, together with that
// percentile. With too few samples for any percentile above the median it
// falls back to the median. xs is sorted in place; 0 when empty.
func tail(xs []float64, want float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	i := min(rank(n, want), n-1-minTail)
	if m := rank(n, 0.5); i < m {
		i = m
	}
	return xs[i], float64(i+1) / float64(n)
}

// tailWindow is the fewest samples that hold a p99 with minTail beyond it.
const tailWindow = 1000

// windowedTail splits xs, which must be in the order the samples were
// taken, into as many consecutive windows of at least tailWindow samples
// as it holds (at least one), and returns the median over the windows of
// each window's tail, the median percentile used and the window count. A
// stall confined to one window then moves the result far less than it
// moves a single tail over all the samples. xs is left unchanged.
func windowedTail(xs []float64, want float64) (value, pct float64, windows int) {
	windows = max(1, len(xs)/tailWindow)
	var vs, ps []float64
	for w := 0; w < windows; w++ {
		part := append([]float64(nil), xs[w*len(xs)/windows:(w+1)*len(xs)/windows]...)
		v, p := tail(part, want)
		vs, ps = append(vs, v), append(ps, p)
	}
	return median(vs), median(ps), windows
}

// mean returns the arithmetic mean of xs; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest accumulates a stream's rows into one fingerprint: two streams
// with the same rows in the same order have the same digest.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: fnv.New64a().Sum64()} }

func (d *digest) add(sql string, measured float64) {
	h := fnv.New64a()
	var b [8]byte
	for i, v := 0, d.h; i < 8; i, v = i+1, v>>8 {
		b[i] = byte(v)
	}
	h.Write(b[:])
	h.Write([]byte(sql))
	for i, v := 0, math.Float64bits(measured); i < 8; i, v = i+1, v>>8 {
		b[i] = byte(v)
	}
	h.Write(b[:])
	d.h = h.Sum64()
}

// newRand returns the deterministic random stream n fanned out of seed.
func newRand(seed int64, n uint64) *rand.Rand {
	return rand.New(rand.NewSource(rl.FanSeed(seed, n)))
}

// logSpan maps u ∈ [0, 1) onto [lo, hi) evenly in log space.
func logSpan(lo, hi, u float64) float64 {
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}
