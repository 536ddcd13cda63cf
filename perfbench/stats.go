package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"strconv"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between the two closest ranks of the sorted sample
// (the "linear" method of numpy and R type 7). It sorts a copy, so the
// caller's order is kept. An empty sample gives NaN.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[lo] == s[hi] {
		return s[lo] // also keeps an infinite tail from turning into NaN
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// windowQuantile splits xs, in arrival order, into consecutive
// windows of n samples and returns the median over windows of each
// window's p-quantile. Brief host stalls then spoil the windows they
// fall in rather than the whole tail. A trailing partial window is
// dropped; with no full window the whole sample is one window.
func windowQuantile(xs []float64, n int, p float64) float64 {
	if n <= 0 || len(xs) < n {
		return quantile(xs, p)
	}
	var qs []float64
	for i := 0; i+n <= len(xs); i += n {
		qs = append(qs, quantile(xs[i:i+n], p))
	}
	return median(qs)
}

// schedRow is one job of a finished schedule as the digest sees it.
type schedRow struct {
	ID            string
	Shard         int
	Start, Finish float64
}

// scheduleDigest hashes a per-job schedule: id, shard, start and
// finish of every job, ordered by id, floats in exact hexadecimal. Two
// runs get the same digest exactly when they produced the same
// schedule.
func scheduleDigest(rows []schedRow) string {
	rs := append([]schedRow(nil), rows...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })
	h := sha256.New()
	var buf []byte
	for _, r := range rs {
		buf = buf[:0]
		buf = append(buf, r.ID...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(r.Shard), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, r.Start, 'x', -1, 64)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, r.Finish, 'x', -1, 64)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// queueSpan is the time a job spent waiting in a scheduler queue:
// from arrival to the moment it left (started, was cancelled or
// failed).
type queueSpan struct{ In, Out float64 }

// queuePeak rebuilds the highest queue length from per-job queue
// spans. A job leaving at the instant it arrived never counted; at
// equal times departures are applied before arrivals.
func queuePeak(spans []queueSpan) int {
	type ev struct {
		t float64
		d int
	}
	evs := make([]ev, 0, 2*len(spans))
	for _, s := range spans {
		if s.Out > s.In {
			evs = append(evs, ev{s.In, 1}, ev{s.Out, -1})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].d < evs[j].d
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.d
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
