package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the same rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads here match those computed from saved results.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // may fall outside [0, 4]: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Verdicts on one metric of one workload.
const (
	verdictGain       = "gain"
	verdictNoChange   = "no change"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// minPairs is the fewest pairs a verdict other than unresolved rests on.
const minPairs = 10

// verdict compares paired runs of a base and a head revision on one metric.
// base[i] and head[i] are the i-th pair; lowerBetter gives the direction and
// bound the share of the base median by which head may be worse.
//
//   - unresolved: fewer than minPairs pairs;
//   - gain: head wins at least nine tenths of the pairs (ties count for
//     neither) and the medians differ by more than the base runs' own
//     interquartile distance;
//   - unresolved: the run-to-run spread (interquartile distance over median,
//     the wider of the two sides) exceeds the bound, unless every head run is
//     better than every base run;
//   - regression: head's median is worse than base's by more than the bound;
//   - no change otherwise.
func verdict(base, head []float64, lowerBetter bool, bound float64) string {
	n := min(len(base), len(head))
	if n < minPairs {
		return verdictUnresolved
	}
	base, head = base[:n], head[:n]
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	wins := 0
	for i := range n {
		if better(head[i], base[i]) {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	hq1, hmed, hq3 := quartiles(head)
	if 10*wins >= 9*n && math.Abs(hmed-bmed) > bq3-bq1 {
		return verdictGain
	}
	spread := math.Max(relative(bq3-bq1, bmed), relative(hq3-hq1, hmed))
	if spread > bound && !allBetter(head, base, better) {
		return verdictUnresolved
	}
	worse := relative(hmed-bmed, bmed)
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return verdictRegression
	}
	return verdictNoChange
}

// relative returns d as a share of |ref|; any change from 0 is infinite.
func relative(d, ref float64) float64 {
	if ref == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, d)))
	}
	return d / math.Abs(ref)
}

func allBetter(head, base []float64, better func(a, b float64) bool) bool {
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				return false
			}
		}
	}
	return true
}
