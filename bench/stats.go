package main

import (
	"math"
	"sort"

	"github.com/activeiter/activeiter/internal/telemetry"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It selects a measured value, never an interpolated one, so a p99
// over fewer than 100 samples is the maximum. Empty input returns NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle sample, or the mean of the two middle
// samples of an even-sized set. Empty input returns NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianRatio is the median of num[i]/den[i]: each op over the reference
// op paired with it, so that whatever slows both within the run cancels
// pair by pair.
func medianRatio(num, den []float64) float64 {
	r := make([]float64, len(num))
	for i := range r {
		r[i] = num[i] / den[i]
	}
	return median(r)
}

// quartiles returns the first and third quartile by the exclusive
// method Python's statistics.quantiles(xs, n=4) uses — the rule the
// benchmark contract's acceptance check applies — so spreads printed
// here match what the driver computes. Needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance as a share of the median —
// the steadiness figure every bound is compared against.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// selfTimes computes, per span ID, the span's duration minus the part
// of its interval covered by its direct children — overlapping
// children (concurrent shard pipelines under one parent) are counted
// once, by the union of their intervals clipped to the parent.
func selfTimes(spans []telemetry.SpanData) map[uint64]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[uint64][]iv, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := int64(0), s.Start
		for _, k := range ivs {
			lo, hi := k.lo, k.hi
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}
