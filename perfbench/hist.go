package main

import (
	"math/bits"
	"time"
)

// Hist is a fixed-memory log-linear histogram of non-negative integer
// samples (nanoseconds here). Values below 2^subBits are kept exactly;
// above that each power-of-two octave is split into 2^subBits equal
// buckets, so a bucket is at most 1/128 of its lower bound wide. Quantile
// reports a bucket's midpoint, which is within 1/256 (0.39%) of every
// sample in that bucket: that is the histogram's stated relative error.
// Values at or above 2^maxBits ns (about 18 minutes) land in the last
// bucket.
type Hist struct {
	counts []uint64
	n      uint64
}

const (
	subBits = 7
	maxBits = 40
	// HistRelErr is the bound on |Quantile - exact| / exact for samples
	// of at least 2^subBits; smaller samples are reported exactly.
	HistRelErr = 1.0 / 256
)

func newHist() *Hist {
	return &Hist{counts: make([]uint64, (maxBits-subBits+1)<<subBits)}
}

func bucketOf(v uint64) int {
	if v >= 1<<maxBits {
		v = 1<<maxBits - 1
	}
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1 // v>>e is in [2^subBits, 2^(subBits+1))
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketMid returns the value reported for a bucket.
func bucketMid(b int) uint64 {
	if b < 1<<subBits {
		return uint64(b)
	}
	e := b>>subBits - 1
	m := uint64(b&(1<<subBits-1)) + 1<<subBits
	lo := m << e
	if e == 0 {
		return lo
	}
	return lo + 1<<(e-1)
}

// latSample is one delivery latency: the notification's due time (ns
// since the workload's epoch) and how long after it the handler ran.
type latSample struct{ due, lat int64 }

// latLog collects latency samples per phase (0 untraced, 1 traced). Each
// is appended by one delivery goroutine only.
type latLog [2][]latSample

func (l *latLog) add(phase int32, due, now int64) {
	l[phase] = append(l[phase], latSample{due, now - due})
}

// latStats summarizes the delivery latencies of a phase.
type latStats struct {
	p50, p90 float64 // medians over rounds of each round's quantile
	p99      float64 // pooled over the phase
}

// roundStats summarizes the latencies of a phase of the given number of
// rounds. Taking a quantile per round and then the median keeps one
// stalled second (a GC cycle, the host stealing both CPUs for a few
// milliseconds) from setting the run's figure, while a stall that recurs
// in most rounds still does. Rounds with fewer than 100 samples (fewer
// than ten beyond their p90) are left out.
func roundStats(samples []latSample, base int64, roundLen time.Duration, rounds int) latStats {
	all := newHist()
	per := make([]*Hist, rounds)
	for i := range per {
		per[i] = newHist()
	}
	for _, s := range samples {
		all.Record(s.lat)
		r := int((s.due - base) / int64(roundLen))
		if r >= 0 && r < rounds {
			per[r].Record(s.lat)
		}
	}
	st := latStats{p99: float64(all.Quantile(0.99))}
	var q50, q90 []float64
	for _, h := range per {
		if h.Count() >= 100 {
			q50 = append(q50, float64(h.Quantile(0.5)))
			q90 = append(q90, float64(h.Quantile(0.9)))
		}
	}
	if len(q50) == 0 {
		st.p50, st.p90 = float64(all.Quantile(0.5)), float64(all.Quantile(0.9))
		return st
	}
	st.p50, st.p90 = median(q50), median(q90)
	return st
}

// Record adds one sample; negative samples count as 0.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(uint64(v))]++
	h.n++
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.n }

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Quantile returns the nearest-rank q-quantile (0 < q <= 1), or 0 when
// the histogram is empty.
func (h *Hist) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return bucketMid(len(h.counts) - 1)
}
