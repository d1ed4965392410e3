package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples: the median is the reported
// value, the quartiles and extremes show how far single samples stray.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarize sorts a copy of v and reads its quartiles.
func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := sortedCopy(v)
	return summary{
		N:      len(s),
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile reads the p-quantile of an ascending slice, interpolating
// between neighbours; 0 for an empty slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// groupQuantiles cuts samples taken in time order into consecutive
// groups — ten samples or more each, twenty groups at most — and returns
// each group's p-quantile. The median over the groups is a percentile
// that a disturbance covering less than half the window does not move.
func groupQuantiles(v []float64, p float64) []float64 {
	groups := min(max(len(v)/10, 1), 20)
	out := make([]float64, groups)
	for g := range out {
		out[g] = quantile(sortedCopy(v[g*len(v)/groups:(g+1)*len(v)/groups]), p)
	}
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// ratio is a/b, 0 when b is 0 (a layer that did no work has no rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
