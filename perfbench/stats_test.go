package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.75, 32.5}, {0.99, 39.7},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("empty or single-sample quantile")
	}
}

func TestMaxOverlap(t *testing.T) {
	ms := time.Millisecond
	iv := []interval{{0, 10 * ms}, {2 * ms, 4 * ms}, {3 * ms, 12 * ms}, {10 * ms, 11 * ms}}
	// at 3ms three are open; the one starting at 10ms begins as the first ends
	if got := maxOverlap(iv); got != 3 {
		t.Errorf("maxOverlap = %d, want 3", got)
	}
	if maxOverlap(nil) != 0 {
		t.Error("no intervals, no overlap")
	}
}

func TestFreshnessCountsFromTheCycleSchedule(t *testing.T) {
	ms := time.Millisecond
	mutates := []opStat{
		{sched: 0, sent: 0, done: 1 * ms},
		{sched: 25 * ms, sent: 40 * ms, done: 41 * ms}, // sent late: the connection was busy
		{sched: 50 * ms, sent: 50 * ms, done: 52 * ms}, // rejected: no flush follows
	}
	flushes := []opStat{
		{sched: 1 * ms, sent: 1 * ms, done: 40 * ms},
		{sched: 41 * ms, sent: 41 * ms, done: 45 * ms},
	}
	got := freshness(mutates, flushes)
	want := []float64{40, 20} // each from its own cycle's due time to its own ack
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("freshness = %v, want %v", got, want)
	}
}
