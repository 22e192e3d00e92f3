package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// latencyHist is a fixed-bucket latency histogram: 10 ns buckets up
// to 1 ms, one overflow bucket above. Recording never allocates,
// histograms merge by addition, and a quantile interpolates inside
// its bucket, so it resolves a microsecond-scale median to about 1%.
type latencyHist struct {
	counts [histBuckets + 1]uint64
	n      uint64
	sum    float64 // ns
	max    int64   // ns
}

const (
	histStepNS  = 10
	histMax     = 1_000_000 // 1 ms
	histBuckets = histMax / histStepNS
)

func (h *latencyHist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := ns / histStepNS
	if b > histBuckets {
		b = histBuckets
	}
	h.counts[b]++
	h.n++
	h.sum += float64(ns)
	if ns > h.max {
		h.max = ns
	}
}

func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantileNS returns the q-quantile in nanoseconds.
func (h *latencyHist) quantileNS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) >= rank {
			if b == histBuckets {
				return float64(h.max)
			}
			frac := (rank - float64(seen)) / float64(c)
			return (float64(b) + frac) * histStepNS
		}
		seen += c
	}
	return float64(h.max)
}

func (h *latencyHist) meanNS() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}
