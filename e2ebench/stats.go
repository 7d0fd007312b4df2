package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"time"

	"geniex/internal/linalg"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (rank p/100·(n−1) on the sorted
// sample). It returns NaN for an empty sample and does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// rrmse is the relative RMSE of got against ref: ‖got−ref‖₂ / ‖ref‖₂.
func rrmse(got, ref []float64) float64 {
	var num, den float64
	for i := range ref {
		d := got[i] - ref[i]
		num += d * d
		den += ref[i] * ref[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// digest is a SHA-256 over the shape and the IEEE-754 bits of every
// element, so two outputs share a digest only when bit-identical.
func digest(m *linalg.Dense) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(m.Rows))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(m.Cols))
	h.Write(b[:])
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// dueTimes is an open-loop schedule: n requests at a fixed rate (per
// second), the i-th due i/rate after start.
func dueTimes(start time.Time, rate float64, n int) []time.Time {
	out := make([]time.Time, n)
	for i := range out {
		out[i] = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	return out
}

// sinceDue is a request's latency counted from when it was due to be
// sent, so a stall that delays later sends is charged to them too.
func sinceDue(due, done time.Time) time.Duration { return done.Sub(due) }

// lateness is how far behind its schedule the generator handed a
// request over; never negative (an early hand-over counts as on time).
func lateness(due, handed time.Time) time.Duration {
	if d := handed.Sub(due); d > 0 {
		return d
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
