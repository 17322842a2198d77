package main

import (
	"math"

	"imtao/internal/stats"
)

// median is the nearest-rank median of xs; 0 for an empty sample.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// ratio is num/den, or 0 when den is 0, so a layer that did no work reports
// a ratio of 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailPercentile returns the highest percentile of tailLadder with at least
// ten of n samples beyond it under the nearest-rank definition, so the tail
// rests on ten observations. Below twenty samples no percentile qualifies
// and the median is returned.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-nearestRank(n, p) >= 10 {
			return p
		}
	}
	return 0.5
}

// nearestRank is the 1-based rank stats.Quantile reads for percentile p of n
// samples, clamped to [1, n].
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	return min(max(r, 1), n)
}
