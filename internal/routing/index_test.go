package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------------
// Deterministic per-operator coverage: every operator class must route
// through its posting-list type and agree with Filter.Matches.
// ---------------------------------------------------------------------------

func TestIndexOperatorClasses(t *testing.T) {
	cases := []struct {
		name   string
		c      filter.Constraint
		match  message.Value
		reject message.Value
	}{
		{"eq", filter.EQ("a", message.Int(3)), message.Int(3), message.Int(4)},
		{"eq-kind", filter.EQ("a", message.Int(3)), message.Int(3), message.Float(3)},
		{"ne", filter.NE("a", message.Int(3)), message.Int(4), message.Int(3)},
		{"lt", filter.LT("a", message.Int(3)), message.Int(2), message.Int(3)},
		{"le", filter.LE("a", message.Int(3)), message.Int(3), message.Int(4)},
		{"gt", filter.GT("a", message.Int(3)), message.Int(4), message.Int(3)},
		{"ge", filter.GE("a", message.Int(3)), message.Int(3), message.Int(2)},
		{"gt-string", filter.GT("a", message.String("m")), message.String("n"), message.String("a")},
		{"range", filter.Range("a", message.Int(2), message.Int(5)), message.Int(5), message.Int(6)},
		{"range-float", filter.Range("a", message.Float(0.5), message.Float(1.5)), message.Float(1), message.Int(1)},
		{"prefix", filter.Prefix("a", "par"), message.String("parking"), message.String("pizza")},
		{"prefix-empty", filter.Prefix("a", ""), message.String("anything"), message.Int(1)},
		{"suffix", filter.Suffix("a", "ing"), message.String("parking"), message.String("parked")},
		{"contains", filter.Contains("a", "rki"), message.String("parking"), message.String("parquet")},
		{"in", filter.In("a", message.Int(1), message.Int(3)), message.Int(3), message.Int(2)},
		{"exists", filter.Exists("a"), message.Bool(false), message.Value{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewTable()
			tbl.Add(Entry{Filter: filter.MustNew(tc.c), Hop: wire.BrokerHop("up")})
			match := message.New(map[string]message.Value{"a": tc.match})
			if got := tbl.MatchingHops(match, wire.Hop{}); len(got) != 1 {
				t.Errorf("value %s should match %s", tc.match, tc.c)
			}
			reject := message.New(map[string]message.Value{"a": tc.reject})
			if got := tbl.MatchingHops(reject, wire.Hop{}); len(got) != 0 {
				t.Errorf("value %s should not match %s", tc.reject, tc.c)
			}
			// Absent attribute never matches a constrained filter.
			if got := tbl.MatchingHops(message.New(nil), wire.Hop{}); len(got) != 0 {
				t.Errorf("absent attribute should not match %s", tc.c)
			}
		})
	}
}

func TestIndexConjunctionCounting(t *testing.T) {
	tbl := NewTable()
	// Two constraints on the same attribute plus one on another: the count
	// must reach 3, not 2, before the entry matches.
	f := filter.MustNew(
		filter.GE("p", message.Int(0)),
		filter.LE("p", message.Int(10)),
		filter.EQ("svc", message.String("parking")),
	)
	tbl.Add(Entry{Filter: f, Hop: wire.BrokerHop("up")})

	full := message.New(map[string]message.Value{
		"p": message.Int(5), "svc": message.String("parking"),
	})
	if got := tbl.MatchingHops(full, wire.Hop{}); len(got) != 1 {
		t.Error("all constraints satisfied: should match")
	}
	partial := message.New(map[string]message.Value{"p": message.Int(5)})
	if got := tbl.MatchingHops(partial, wire.Hop{}); len(got) != 0 {
		t.Error("one attribute missing: must not match")
	}
	outOfRange := message.New(map[string]message.Value{
		"p": message.Int(11), "svc": message.String("parking"),
	})
	if got := tbl.MatchingHops(outOfRange, wire.Hop{}); len(got) != 0 {
		t.Error("one constraint failing: must not match")
	}
}

func TestIndexMatchAllEntries(t *testing.T) {
	tbl := NewTable()
	tbl.Add(Entry{Filter: filter.MatchAll(), Hop: wire.BrokerHop("flood")})
	tbl.Add(Entry{Filter: filter.MustNew(filter.EQ("k", message.Int(1))), Hop: wire.BrokerHop("sel")})
	n := message.New(map[string]message.Value{"other": message.Int(9)})
	hops := tbl.MatchingHops(n, wire.Hop{})
	if len(hops) != 1 || hops[0].Broker != "flood" {
		t.Errorf("MatchingHops = %v, want just flood", hops)
	}
	if st := tbl.IndexStats(); st.MatchAll != 1 || st.Entries != 2 {
		t.Errorf("IndexStats = %+v", st)
	}
}

func TestIndexStatsDrainToZero(t *testing.T) {
	tbl := NewTable()
	es := []Entry{
		{Filter: filter.MustNew(filter.EQ("a", message.Int(1))), Hop: wire.BrokerHop("b1")},
		{Filter: filter.MustNew(filter.Range("b", message.Int(0), message.Int(9)), filter.Prefix("c", "x")), Hop: wire.BrokerHop("b2")},
		{Filter: filter.MatchAll(), Hop: wire.ClientHop("c1")},
		{Filter: filter.MustNew(filter.In("d", message.Int(1), message.Int(2)), filter.Contains("e", "q")), Hop: wire.BrokerHop("b3"), Client: "C", SubID: "s"},
	}
	for _, e := range es {
		if !tbl.Add(e) {
			t.Fatal("Add failed")
		}
	}
	st := tbl.IndexStats()
	if st.Entries != 4 || st.Postings != 5 || st.MatchAll != 1 {
		t.Errorf("IndexStats after adds = %+v", st)
	}
	tbl.RemoveClient("C", "s")
	tbl.RemoveHop(wire.ClientHop("c1"))
	for _, e := range es[:2] {
		tbl.Remove(e)
	}
	st = tbl.IndexStats()
	if st.Entries != 0 || st.Postings != 0 || st.Attrs != 0 || st.MatchAll != 0 {
		t.Errorf("IndexStats after drain = %+v, want all zero", st)
	}
}

// TestIndexDuplicateInMembers guards against counting one in-constraint
// twice: wire-decoded filters bypass the In constructor's dedup, so the
// set may carry duplicate members. With a duplicate, a naive per-member
// posting would bump the entry to its total without the second attribute
// matching at all.
func TestIndexDuplicateInMembers(t *testing.T) {
	dupIn := filter.Constraint{
		Attr:   "a",
		Op:     filter.OpIn,
		Values: []message.Value{message.Int(1), message.Int(1)},
	}
	f := filter.MustNew(dupIn, filter.EQ("b", message.String("y")))
	tbl := NewTable()
	tbl.Add(Entry{Filter: f, Hop: wire.BrokerHop("up")})

	half := message.New(map[string]message.Value{"a": message.Int(1)})
	if got := tbl.MatchingHops(half, wire.Hop{}); len(got) != 0 {
		t.Errorf("duplicate in-member double-counted: MatchingHops = %v", got)
	}
	full := message.New(map[string]message.Value{
		"a": message.Int(1), "b": message.String("y"),
	})
	if got := tbl.MatchingHops(full, wire.Hop{}); len(got) != 1 {
		t.Errorf("fully matching notification: MatchingHops = %v", got)
	}
	if !tbl.Remove(Entry{Filter: f, Hop: wire.BrokerHop("up")}) {
		t.Fatal("Remove failed")
	}
	if st := tbl.IndexStats(); st.Attrs != 0 || st.Postings != 0 {
		t.Errorf("IndexStats after remove = %+v", st)
	}
}

// TestIndexNaNOperands: NaN never equals anything (so eq postings on NaN
// would be dead weight and, because NaN != NaN as a map key, unremovable),
// and Value.Compare treats NaN as equal to everything (breaking interval
// order). The index must both agree with the linear scan and shrink back
// to zero after add/remove churn.
func TestIndexNaNOperands(t *testing.T) {
	nan := message.Float(math.NaN())
	entries := []Entry{
		{Filter: filter.MustNew(filter.EQ("a", nan)), Hop: wire.BrokerHop("b1")},
		{Filter: filter.MustNew(filter.Constraint{Attr: "a", Op: filter.OpIn,
			Values: []message.Value{nan, message.Float(1)}}), Hop: wire.BrokerHop("b2")},
		{Filter: filter.MustNew(filter.GE("a", nan)), Hop: wire.BrokerHop("b3")},
		{Filter: filter.MustNew(filter.Range("a", nan, nan)), Hop: wire.BrokerHop("b4")},
		{Filter: filter.MustNew(filter.NE("a", nan)), Hop: wire.BrokerHop("b5")},
	}
	tbl := NewTable()
	for cycle := 0; cycle < 3; cycle++ {
		for _, e := range entries {
			if !tbl.Add(e) {
				t.Fatal("Add failed")
			}
		}
		for _, v := range []message.Value{
			message.Float(1), message.Float(math.NaN()), message.Int(1), message.Float(0),
		} {
			n := message.New(map[string]message.Value{"a": v})
			got := tbl.MatchingHops(n, wire.Hop{})
			want := tbl.MatchingHopsLinear(n, wire.Hop{})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("cycle %d, a=%s: index %v, linear %v", cycle, v, got, want)
			}
		}
		for _, e := range entries {
			if !tbl.Remove(e) {
				t.Fatal("Remove failed")
			}
		}
		if st := tbl.IndexStats(); st.Entries != 0 || st.Attrs != 0 || st.Postings != 0 {
			t.Fatalf("cycle %d: index leaked: %+v", cycle, st)
		}
	}
}

// TestIndexAccessPivotRemovalAfterDrift: an access row is posted under the
// = constraint whose attribute had shown the most distinct values when it
// was inserted. Once those counts change, a recomputed choice would
// differ, so removal must unpost the stored pivot; a wrong one leaves
// postings behind and the drain below would not reach zero. The ballast
// rows carry two = each, since only filters with a choice to make feed
// the distinct-value estimate.
func TestIndexAccessPivotRemovalAfterDrift(t *testing.T) {
	tbl := NewTable()
	up := wire.BrokerHop("up")
	zone := filter.EQ("zone", message.String("z0"))
	var ballast []Entry
	for i := 0; i < 4; i++ {
		ballast = append(ballast, Entry{Filter: filter.MustNew(filter.EQ("fleet", message.Int(int64(i))), zone), Hop: up})
	}
	for _, e := range ballast {
		tbl.Add(e)
	}
	car := Entry{Filter: filter.MustNew(
		filter.EQ("region", message.String("r0")),
		filter.EQ("fleet", message.Int(0)),
		filter.Range("speed", message.Int(0), message.Int(50)),
	), Hop: wire.BrokerHop("car")}
	if !tbl.Add(car) {
		t.Fatal("Add failed")
	}
	// fleet (4 values) beat region (none yet): one posting, one attribute.
	if st := tbl.IndexStats(); st.Postings != 5 || st.Attrs != 1 {
		t.Fatalf("conjunction should post once under fleet: %+v", st)
	}
	// region now has the most distinct values.
	for i := 0; i < 16; i++ {
		e := Entry{Filter: filter.MustNew(filter.EQ("region", message.String(fmt.Sprintf("r%d", i))), zone), Hop: up}
		tbl.Add(e)
		ballast = append(ballast, e)
	}
	report := func(speed int64) message.Notification {
		return message.New(map[string]message.Value{
			"region": message.String("r0"), "fleet": message.Int(0), "speed": message.Int(speed), "zone": message.String("z0"),
		})
	}
	for _, speed := range []int64{10, 60} {
		n := report(speed)
		if got, want := tbl.MatchingHops(n, wire.Hop{}), tbl.MatchingHopsLinear(n, wire.Hop{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("speed %d: index %v, linear %v", speed, got, want)
		}
	}
	if !tbl.Remove(car) {
		t.Fatal("Remove failed")
	}
	if got := tbl.MatchingHops(report(10), wire.Hop{}); len(got) != 1 || got[0] != up {
		t.Fatalf("after removal MatchingHops = %v, want just up", got)
	}
	for _, e := range ballast {
		if !tbl.Remove(e) {
			t.Fatal("Remove failed")
		}
	}
	if st := tbl.IndexStats(); st.Entries != 0 || st.Postings != 0 || st.Attrs != 0 {
		t.Fatalf("after drain IndexStats = %+v, want all zero", st)
	}
}

// TestIndexPivotPrefersDistinctAttribute: in a table made only of
// region ∧ fleet conjunctions, most rows must end up posted under region
// (64 values) rather than fleet (16), even though no row ever posts both.
// A choice by posted buckets alone would lock onto the first row's pivot.
func TestIndexPivotPrefersDistinctAttribute(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tbl := NewTable()
	for i := 0; i < 2000; i++ {
		tbl.Add(Entry{Filter: filter.MustNew(
			filter.EQ("fleet", message.String(fmt.Sprintf("f%d", r.Intn(16)))),
			filter.EQ("region", message.String(fmt.Sprintf("r%d", r.Intn(64)))),
			filter.Range("speed", message.Int(0), message.Int(int64(r.Intn(100)))),
		), Hop: wire.BrokerHop(wire.BrokerID(fmt.Sprintf("b%d", i)))})
	}
	byAttr := map[string]int{}
	tbl.idx.forEachLiveSlot(func(_ int32, rw *row) {
		byAttr[rw.f.At(rw.pivot()).Attr]++
	})
	if byAttr["region"] < 1900 {
		t.Fatalf("pivots by attribute = %v, want nearly all on region", byAttr)
	}
}

// TestMatchScratchGrowthAmortized: a table that grows by one row between
// matches must not reallocate the counter arrays on every match; they are
// sized in whole row pages, so allocations per add+match stay amortized
// O(1) instead of two full-length arrays each time. The loop holds one
// scratch rather than going through the pool, which the race detector
// empties at random.
func TestMatchScratchGrowthAmortized(t *testing.T) {
	const rounds = 2048
	tbl := NewTable()
	up := wire.BrokerHop("up")
	fs := make([]filter.Filter, rounds)
	for i := range fs {
		// Range rows are counted, so every match uses the counters.
		fs[i] = filter.MustNew(filter.Range("p", message.Int(int64(i)), message.Int(int64(i+1))))
	}
	n := message.New(map[string]message.Value{"p": message.Int(0)})
	s := &scratch{}
	matched := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range fs {
		tbl.Add(Entry{Filter: fs[i], Hop: up})
		s.reset(tbl.idx.rows.len())
		matched += len(tbl.idx.match(n, s))
	}
	runtime.ReadMemStats(&after)
	if matched != rounds {
		t.Fatalf("matched %d rows, want %d", matched, rounds)
	}
	if per := float64(after.Mallocs-before.Mallocs) / rounds; per > 1 {
		t.Errorf("%.2f allocations per add+match, want amortized O(1) (at most 1)", per)
	}
}

// ---------------------------------------------------------------------------
// Property-based parity: under randomized filters, notifications, and
// add/remove interleavings, the index must return byte-identical results to
// the linear-scan reference implementation.
// ---------------------------------------------------------------------------

var propAttrs = []string{"a", "b", "c", "d", "e"}

func randValue(r *rand.Rand) message.Value {
	switch r.Intn(4) {
	case 0:
		return message.String([]string{"", "x", "xy", "yz", "park", "parking", "pizza"}[r.Intn(7)])
	case 1:
		return message.Int(int64(r.Intn(15) - 2))
	case 2:
		return message.Float(float64(r.Intn(20))/4 - 1)
	default:
		return message.Bool(r.Intn(2) == 0)
	}
}

// randOrderable avoids bools, which Validate rejects for ordered operators.
func randOrderable(r *rand.Rand) message.Value {
	switch r.Intn(3) {
	case 0:
		return message.String([]string{"", "x", "xy", "park", "pizza"}[r.Intn(5)])
	case 1:
		return message.Int(int64(r.Intn(15) - 2))
	default:
		return message.Float(float64(r.Intn(20))/4 - 1)
	}
}

func randConstraint(r *rand.Rand) filter.Constraint {
	attr := propAttrs[r.Intn(len(propAttrs))]
	switch r.Intn(10) {
	case 0:
		return filter.EQ(attr, randValue(r))
	case 1:
		return filter.NE(attr, randValue(r))
	case 2:
		switch r.Intn(4) {
		case 0:
			return filter.LT(attr, randOrderable(r))
		case 1:
			return filter.LE(attr, randOrderable(r))
		case 2:
			return filter.GT(attr, randOrderable(r))
		default:
			return filter.GE(attr, randOrderable(r))
		}
	case 3:
		lo := message.Int(int64(r.Intn(10) - 2))
		hi := message.Int(lo.IntVal() + int64(r.Intn(8)))
		return filter.Range(attr, lo, hi)
	case 4:
		return filter.Prefix(attr, []string{"", "x", "p", "par", "pi"}[r.Intn(5)])
	case 5:
		return filter.Suffix(attr, []string{"y", "ing", "za"}[r.Intn(3)])
	case 6:
		return filter.Contains(attr, []string{"x", "ar", "zz"}[r.Intn(3)])
	case 7:
		vs := make([]message.Value, 1+r.Intn(3))
		for i := range vs {
			vs[i] = randValue(r)
		}
		return filter.In(attr, vs...)
	case 8:
		return filter.Exists(attr)
	default:
		return filter.EQ(attr, randValue(r))
	}
}

// randEqValue draws from the small value domain of the equality-heavy
// conjunctions. Notifications draw from it too, so those conjunctions
// match often enough to test. Float 1 equals neither Int 1 nor Int 2.
func randEqValue(r *rand.Rand) message.Value {
	switch r.Intn(4) {
	case 0:
		return message.String("x")
	case 1:
		return message.Int(1)
	case 2:
		return message.Int(2)
	default:
		return message.Float(1)
	}
}

// randConjunction draws a fleet-shaped filter (region ∧ fleet ∧ speed
// range): several = on distinct attributes plus one of the mixes the
// access-predicate path must get right.
func randConjunction(r *rand.Rand) filter.Filter {
	cs := []filter.Constraint{filter.EQ("a", randEqValue(r))}
	for _, attr := range []string{"b", "c"} {
		if r.Intn(2) == 0 {
			cs = append(cs, filter.EQ(attr, randEqValue(r)))
		}
	}
	switch r.Intn(5) {
	case 0: // two = on one attribute
		cs = append(cs, filter.EQ(propAttrs[r.Intn(3)], randEqValue(r)))
	case 1: // a NaN = next to a real one
		cs = append(cs, filter.EQ(propAttrs[r.Intn(len(propAttrs))], message.Float(math.NaN())))
	case 2: // in + =
		cs = append(cs, filter.In(propAttrs[r.Intn(len(propAttrs))], randEqValue(r), randEqValue(r)))
	case 3: // = + range
		lo := int64(r.Intn(3))
		cs = append(cs, filter.Range(propAttrs[3+r.Intn(2)], message.Int(lo), message.Int(lo+int64(r.Intn(3)))))
	}
	return filter.MustNew(cs...)
}

func randFilter(r *rand.Rand) filter.Filter {
	if r.Intn(2) == 0 {
		return randConjunction(r)
	}
	nc := r.Intn(4) // 0 => match-all
	for {
		cs := make([]filter.Constraint, nc)
		for i := range cs {
			cs[i] = randConstraint(r)
		}
		f, err := filter.New(cs...)
		if err == nil {
			return f
		}
	}
}

func randHop(r *rand.Rand) wire.Hop {
	if r.Intn(3) == 0 {
		return wire.ClientHop(wire.ClientID(fmt.Sprintf("c%d", r.Intn(3))))
	}
	return wire.BrokerHop(wire.BrokerID(fmt.Sprintf("b%d", r.Intn(4))))
}

func randEntry(r *rand.Rand) Entry {
	e := Entry{Filter: randFilter(r), Hop: randHop(r)}
	if r.Intn(2) == 0 {
		e.Client = wire.ClientID(fmt.Sprintf("c%d", r.Intn(3)))
		e.SubID = wire.SubID(fmt.Sprintf("s%d", r.Intn(3)))
	}
	return e
}

func randNotification(r *rand.Rand) message.Notification {
	attrs := make(map[string]message.Value)
	if r.Intn(2) == 0 {
		// A fleet-shaped report: every attribute set, the = attributes
		// from randConjunction's domain, the range attributes small ints.
		for i, a := range propAttrs {
			if i < 3 {
				attrs[a] = randEqValue(r)
			} else {
				attrs[a] = message.Int(int64(r.Intn(4)))
			}
		}
		return message.New(attrs)
	}
	for i, na := 0, r.Intn(5); i < na; i++ {
		attrs[propAttrs[r.Intn(len(propAttrs))]] = randValue(r)
	}
	return message.New(attrs)
}

// isConjunctionMatch reports whether e is a multi-constraint filter with
// a real = constraint: a row the index verifies instead of counting.
func isConjunctionMatch(e Entry) bool {
	if e.Filter.Len() < 2 {
		return false
	}
	for i := 0; i < e.Filter.Len(); i++ {
		if c := e.Filter.At(i); c.Op == filter.OpEQ && !isNaNValue(c.Value) {
			return true
		}
	}
	return false
}

// checkParity compares the index with the linear scan on three random
// notifications and returns how many matched entries were conjunctions
// with a real = constraint, so callers can check the generators reach
// the access-row path.
func checkParity(t *testing.T, tbl *Table, r *rand.Rand, step int) int {
	t.Helper()
	conj := 0
	for i := 0; i < 3; i++ {
		n := randNotification(r)
		from := randHop(r)
		if i == 0 {
			from = wire.Hop{} // also exercise the no-origin case
		}
		gotHops := tbl.MatchingHops(n, from)
		wantHops := tbl.MatchingHopsLinear(n, from)
		if !reflect.DeepEqual(gotHops, wantHops) {
			t.Fatalf("step %d: MatchingHops(%s, %s)\nindex:  %v\nlinear: %v",
				step, n, from, gotHops, wantHops)
		}
		gotEs := tbl.MatchingEntries(n, from)
		wantEs := tbl.MatchingEntriesLinear(n, from)
		if !reflect.DeepEqual(gotEs, wantEs) {
			t.Fatalf("step %d: MatchingEntries(%s, %s)\nindex:  %v\nlinear: %v",
				step, n, from, gotEs, wantEs)
		}
		for _, e := range wantEs {
			if isConjunctionMatch(e) {
				conj++
			}
		}
	}
	return conj
}

func TestIndexParityProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			tbl := NewTable()
			var live []Entry
			conj := 0
			for step := 0; step < 250; step++ {
				switch op := r.Intn(10); {
				case op < 6: // add
					e := randEntry(r)
					if tbl.Add(e) {
						live = append(live, e)
					}
				case op < 8 && len(live) > 0: // remove one entry
					i := r.Intn(len(live))
					if !tbl.Remove(live[i]) {
						t.Fatalf("step %d: live entry not removable", step)
					}
					live = append(live[:i], live[i+1:]...)
				case op == 8 && len(live) > 0: // remove a client subscription
					e := live[r.Intn(len(live))]
					tbl.RemoveClient(e.Client, e.SubID)
					kept := live[:0]
					for _, le := range live {
						if le.Client != e.Client || le.SubID != e.SubID {
							kept = append(kept, le)
						}
					}
					live = kept
				case len(live) > 0: // remove a hop
					h := live[r.Intn(len(live))].Hop
					tbl.RemoveHop(h)
					kept := live[:0]
					for _, le := range live {
						if le.Hop != h {
							kept = append(kept, le)
						}
					}
					live = kept
				}
				if tbl.Len() != len(live) {
					t.Fatalf("step %d: table has %d entries, shadow %d", step, tbl.Len(), len(live))
				}
				conj += checkParity(t, tbl, r, step)
			}
			if conj < 10 {
				t.Errorf("only %d conjunction matches: the generator misses the access-row path", conj)
			}
			// Drain completely: the index must shrink back to nothing.
			for _, e := range live {
				tbl.Remove(e)
			}
			if st := tbl.IndexStats(); st.Entries != 0 || st.Postings != 0 || st.Attrs != 0 {
				t.Errorf("after drain IndexStats = %+v", st)
			}
		})
	}
}

// TestIndexConcurrentMatch exercises the pooled scratch state under
// concurrent matching and table mutation (meaningful under -race).
func TestIndexConcurrentMatch(t *testing.T) {
	tbl := NewTable()
	r := rand.New(rand.NewSource(42))
	var live []Entry
	for i := 0; i < 64; i++ {
		e := randEntry(r)
		if tbl.Add(e) {
			live = append(live, e)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				n := randNotification(rr)
				tbl.MatchingHops(n, wire.Hop{})
				tbl.MatchingEntries(n, randHop(rr))
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr := rand.New(rand.NewSource(99))
		for i := 0; i < 200; i++ {
			e := randEntry(rr)
			tbl.Add(e)
			if rr.Intn(2) == 0 {
				tbl.Remove(e)
			}
		}
	}()
	wg.Wait()
}
