package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistQuantileError checks the histogram against an exact sort of
// the same samples: every quantile is within HistRelErr of the exact
// nearest-rank value (exactly equal below 2^subBits).
func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := map[string]func() int64{
		"small":       func() int64 { return rng.Int63n(1 << subBits) },
		"uniform":     func() int64 { return rng.Int63n(10_000_000) },
		"lognormal":   func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 12)) },
		"heavy tail":  func() int64 { return int64(1000 / math.Pow(rng.Float64()+1e-9, 1.5)) },
		"one octave":  func() int64 { return 1<<20 + rng.Int63n(1<<20) },
		"huge values": func() int64 { return 1<<35 + rng.Int63n(1<<36) },
	}
	qs := []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	for name, gen := range gens {
		h := newHist()
		xs := make([]int64, 20000)
		for i := range xs {
			xs[i] = gen()
			h.Record(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range qs {
			rank := int(math.Ceil(q * float64(len(xs))))
			exact := xs[rank-1]
			got := h.Quantile(q)
			diff := math.Abs(float64(got) - float64(exact))
			if exact < 1<<subBits && diff != 0 || diff > HistRelErr*float64(exact) {
				t.Errorf("%s q=%v: histogram %d, exact %d (rel err %.5f > %.5f)", name, q, got, exact, diff/float64(exact), HistRelErr)
			}
		}
	}
}

func TestHistMergeAndEmpty(t *testing.T) {
	a, b := newHist(), newHist()
	if a.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report 0")
	}
	for i := int64(1); i <= 100; i++ {
		a.Record(i)
		b.Record(i + 100)
	}
	a.Merge(b)
	if a.Count() != 200 || a.Quantile(0.5) != 100 || a.Quantile(1) != 200 {
		t.Fatalf("merged: count %d p50 %d max %d", a.Count(), a.Quantile(0.5), a.Quantile(1))
	}
	a.Record(-5)
	if a.Quantile(0.001) != 0 {
		t.Fatal("negative samples should count as 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{SID: 1, Name: "parent", Start: 0, End: 100},
		{SID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{SID: 3, Parent: 1, Name: "child", Start: 30, End: 50},
		{SID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
	}
	rows := selfTimes(spans)
	if rows[1].Name != "parent" || rows[1].SelfNs != 100-40-10 {
		t.Fatalf("parent self time %+v, want 50", rows[1])
	}
	if rows[0].Name != "child" || rows[0].SelfNs != 30+20+30 || rows[0].Count != 3 {
		t.Fatalf("child row %+v", rows[0])
	}
}
