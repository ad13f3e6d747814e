package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks (the "inclusive" method: q=0 is the
// minimum, q=1 the maximum). xs need not be sorted; an empty slice
// yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is one operation's lifetime on the generator's clock.
type interval struct{ from, to time.Duration }

// maxOverlap returns the largest number of intervals open at one instant:
// the deepest backlog of operations that were due but not yet answered.
// An interval is half-open, so one ending exactly where another starts
// does not overlap it.
func maxOverlap(iv []interval) int {
	type edge struct {
		at    time.Duration
		delta int
	}
	edges := make([]edge, 0, 2*len(iv))
	for _, x := range iv {
		edges = append(edges, edge{x.from, 1}, edge{x.to, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // close before open at ties
	})
	cur, best := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > best {
			best = cur
		}
	}
	return best
}
