package filter

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/message"
)

// randomConstraint draws a constraint on attribute "p" (numeric families)
// or "s" (string families) from a seeded source.
func randomConstraint(rng *rand.Rand) Constraint {
	iv := func() message.Value { return message.Int(int64(rng.Intn(30))) }
	sv := func() message.Value {
		full := strings.Repeat("ab", 3) // "ababab"
		n := rng.Intn(len(full)) + 1
		return message.String(full[:n])
	}
	switch rng.Intn(10) {
	case 0:
		return EQ("p", iv())
	case 1:
		return NE("p", iv())
	case 2:
		return LT("p", iv())
	case 3:
		return LE("p", iv())
	case 4:
		return GT("p", iv())
	case 5:
		return GE("p", iv())
	case 6:
		lo := rng.Intn(20)
		return Range("p", message.Int(int64(lo)), message.Int(int64(lo+rng.Intn(10))))
	case 7:
		vs := make([]message.Value, rng.Intn(4)+1)
		for i := range vs {
			vs[i] = iv()
		}
		return In("p", vs...)
	case 8:
		return Exists("p")
	default:
		switch rng.Intn(3) {
		case 0:
			return Prefix("s", sv().Str())
		case 1:
			return Suffix("s", sv().Str())
		default:
			return Contains("s", sv().Str())
		}
	}
}

// probeNotifications enumerates a value space dense enough to distinguish
// the random constraints above.
func probeNotifications() []message.Notification {
	var out []message.Notification
	for p := -2; p < 35; p++ {
		out = append(out, notif("p", p))
	}
	for _, s := range []string{"", "a", "b", "ab", "ba", "aba", "bab", "abab", "baba"} {
		out = append(out, notif("s", s))
	}
	out = append(out, notif("q", 1)) // neither p nor s present
	return out
}

// TestConstraintCoversSoundnessRandom checks soundness of Covers over the
// full operator matrix: if c covers d then every probe matching d matches
// c.
func TestConstraintCoversSoundnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	probes := probeNotifications()
	for trial := 0; trial < 5000; trial++ {
		c, d := randomConstraint(rng), randomConstraint(rng)
		if c.Attr != d.Attr || !c.Covers(d) {
			continue
		}
		for _, n := range probes {
			if d.Matches(n) && !c.Matches(n) {
				t.Fatalf("unsound cover: %s covers %s but %s matches only d", c, d, n)
			}
		}
	}
}

// TestConstraintOverlapSoundnessRandom checks the contrapositive of
// Overlaps: whenever it reports false, no probe may match both.
func TestConstraintOverlapSoundnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	probes := probeNotifications()
	for trial := 0; trial < 5000; trial++ {
		c, d := randomConstraint(rng), randomConstraint(rng)
		if c.Attr != d.Attr || c.Overlaps(d) {
			continue
		}
		for _, n := range probes {
			if c.Matches(n) && d.Matches(n) {
				t.Fatalf("unsound non-overlap: %s and %s both match %s", c, d, n)
			}
		}
	}
}

// TestFilterCoversImpliesMatchSubsetRandom lifts the soundness check to
// whole filters with several random constraints.
func TestFilterCoversImpliesMatchSubsetRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	probes := probeNotifications()
	mkFilter := func() Filter {
		n := rng.Intn(3) + 1
		cs := make([]Constraint, 0, n)
		for i := 0; i < n; i++ {
			cs = append(cs, randomConstraint(rng))
		}
		f, err := New(cs...)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for trial := 0; trial < 3000; trial++ {
		f, g := mkFilter(), mkFilter()
		if !f.Covers(g) {
			continue
		}
		for _, n := range probes {
			if g.Matches(n) && !f.Matches(n) {
				t.Fatalf("unsound filter cover: %s covers %s but %s slips through", f, g, n)
			}
		}
	}
}

// TestMergePerfectionRandom checks merge exactness over random constraint
// pairs on a single attribute: the merge, when offered, accepts exactly
// the union.
func TestMergePerfectionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	probes := probeNotifications()
	for trial := 0; trial < 5000; trial++ {
		c, d := randomConstraint(rng), randomConstraint(rng)
		if c.Attr != d.Attr {
			continue
		}
		fc, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := New(d)
		if err != nil {
			t.Fatal(err)
		}
		m, ok := Merge(fc, fd)
		if !ok {
			continue
		}
		for _, n := range probes {
			want := fc.Matches(n) || fd.Matches(n)
			if got := m.Matches(n); got != want {
				t.Fatalf("imperfect merge of %s and %s -> %s: probe %s got %v want %v",
					c, d, m, n, got, want)
			}
		}
	}
}

// TestCanonicalIDStableQuick: filters built from permuted constraint
// orders share an ID.
func TestCanonicalIDStableQuick(t *testing.T) {
	f := func(a, b, c int64) bool {
		c1 := EQ("x", message.Int(a))
		c2 := LT("y", message.Int(b))
		c3 := GE("z", message.Int(c))
		f1, err1 := New(c1, c2, c3)
		f2, err2 := New(c3, c1, c2)
		if err1 != nil || err2 != nil {
			return false
		}
		return f1.ID() == f2.ID() && f1.Equal(f2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFilterMatchesMergeWalkRandom checks the sorted-merge Matches (and
// MatchesExcept) against the per-constraint definition: a filter accepts
// a notification exactly when every constraint's own Matches does. The
// generator draws several constraints per filter, often on one attribute,
// with NaN operands, in-sets carrying duplicate members, and notifications
// that leave constrained attributes out.
func TestFilterMatchesMergeWalkRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	attrs := []string{"a", "b", "c", "d"}
	nan := message.Float(math.NaN())
	val := func() message.Value {
		switch rng.Intn(8) {
		case 0:
			return message.String([]string{"", "x", "xy"}[rng.Intn(3)])
		case 1:
			return message.Float(float64(rng.Intn(2)))
		case 2:
			return nan
		case 3:
			return message.Bool(rng.Intn(2) == 0)
		default:
			return message.Int(int64(rng.Intn(2)))
		}
	}
	num := func() message.Value {
		if rng.Intn(6) == 0 {
			return nan
		}
		return message.Int(int64(rng.Intn(2)))
	}
	constraint := func() Constraint {
		attr := attrs[rng.Intn(len(attrs))]
		switch rng.Intn(9) {
		case 0, 1:
			return EQ(attr, val())
		case 2:
			return NE(attr, val())
		case 3:
			return LE(attr, num())
		case 4:
			return GT(attr, num())
		case 5:
			lo := rng.Intn(2)
			return Range(attr, message.Int(int64(lo)), message.Int(int64(lo+rng.Intn(2))))
		case 6:
			// Built raw, as a decoded wire filter may be: duplicates and
			// NaN members survive.
			vs := make([]message.Value, 1+rng.Intn(3))
			for i := range vs {
				vs[i] = val()
			}
			if rng.Intn(2) == 0 {
				vs = append(vs, vs[0])
			}
			return Constraint{Attr: attr, Op: OpIn, Values: vs}
		case 7:
			return Prefix(attr, []string{"", "x"}[rng.Intn(2)])
		default:
			return Exists(attr)
		}
	}
	accepted := 0
	for trial := 0; trial < 20000; trial++ {
		cs := make([]Constraint, rng.Intn(5))
		for i := range cs {
			cs[i] = constraint()
		}
		f, err := New(cs...)
		if err != nil {
			continue
		}
		// Half the values are taken from the filter's own operands so that
		// acceptance is common, not only rejection.
		kv := make(map[string]message.Value)
		for _, a := range attrs {
			if rng.Intn(6) != 0 {
				kv[a] = val()
			}
		}
		for _, c := range cs {
			if rng.Intn(2) != 0 {
				continue
			}
			switch {
			case c.Op == OpIn:
				kv[c.Attr] = c.Values[rng.Intn(len(c.Values))]
			case c.Op == OpRange:
				kv[c.Attr] = c.Lo
			case c.Value.IsValid():
				kv[c.Attr] = c.Value
			}
		}
		n := message.New(kv)
		skip := -1
		if f.Len() > 0 && rng.Intn(2) == 0 {
			skip = rng.Intn(f.Len())
		}
		want, wantExcept := true, true
		for i := 0; i < f.Len(); i++ {
			if !f.At(i).Matches(n) {
				want = false
				if i != skip {
					wantExcept = false
				}
			}
		}
		if got := f.Matches(n); got != want {
			t.Fatalf("%s on %s: Matches = %v, constraints say %v", f, n, got, want)
		}
		if want && f.Len() > 1 {
			accepted++
		}
		if got := f.MatchesExcept(n, skip); got != wantExcept {
			t.Fatalf("%s on %s skipping %d: MatchesExcept = %v, constraints say %v", f, n, skip, got, wantExcept)
		}
	}
	t.Logf("%d multi-constraint filters accepted", accepted)
	if accepted < 500 {
		t.Fatalf("only %d multi-constraint filters accepted: the generator barely tests acceptance", accepted)
	}
}
