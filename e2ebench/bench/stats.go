package bench

import (
	"fmt"
	"sort"
)

// minSamples is the sample-count floor of a percentile: the median needs
// one sample, a tail percentile needs ten samples beyond it.
func minSamples(p float64) int {
	if p <= 50 {
		return 1
	}
	return int(10/(1-p/100) + 0.5)
}

// pct returns the nearest-rank p-th percentile of xs. With floors on, a
// tail percentile over fewer samples than minSamples is an error.
func pct(xs []float64, p float64, floors bool) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	if floors && len(xs) < minSamples(p) {
		return 0, fmt.Errorf("p%g over %d samples (needs %d)", p, len(xs), minSamples(p))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*p/100+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	return s[i], nil
}

// maxBlocks caps how many blocks blockPct splits a series into.
const maxBlocks = 5

// blockPct splits xs, in time order, into as many consecutive blocks as
// the percentile's sample floor allows (at most maxBlocks), takes the
// percentile of each block and returns the median of those. One stall
// then moves one block's figure instead of the whole run's.
func blockPct(xs []float64, p float64, floors bool) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, nil
	}
	b := min(maxBlocks, n/minSamples(p))
	if b < 1 {
		if floors {
			return 0, fmt.Errorf("p%g over %d samples (needs %d)", p, n, minSamples(p))
		}
		b = 1
	}
	per := make([]float64, b)
	for i := range per {
		per[i], _ = pct(xs[i*n/b:(i+1)*n/b], p, false)
	}
	sort.Float64s(per)
	if b%2 == 1 {
		return per[b/2], nil
	}
	return (per[b/2-1] + per[b/2]) / 2, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts nanosecond samples to milliseconds; us to microseconds.
func ms(ns []int64) []float64 { return scale(ns, 1e6) }
func us(ns []int64) []float64 { return scale(ns, 1e3) }

func scale(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}
