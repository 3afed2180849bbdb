package routing

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/wire"
)

// entriesEqual renders two entry slices and compares them.
func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key() != b[i].key() {
			return false
		}
	}
	return true
}

// TestSnapshotParityProperty drives a random mutate/match workload and
// checks, at every seventh step, that the live index and a fresh snapshot
// both reproduce the linear scan's match results exactly, and that a
// snapshot taken earlier still reproduces the results from its own point
// in time (immutability under subsequent mutation).
func TestSnapshotParityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(0x5eed))
	tbl := NewTable()
	var live []Entry

	var held []*Snapshot
	conj := 0

	// Steps past 400 drain: removals (some by client) outweigh adds, so
	// the free list comes to dominate and snapshots switch to rebuilds,
	// which re-choose every access row's pivot in a fresh index.
	for step := 0; step < 600; step++ {
		drain := step >= 400
		switch op := r.Intn(6); {
		case len(live) == 0 || (!drain && op < 4) || (drain && op == 0):
			e := randEntry(r)
			if tbl.Add(e) {
				live = append(live, e)
			}
		case drain && op == 1:
			e := live[r.Intn(len(live))]
			tbl.RemoveClient(e.Client, e.SubID)
			kept := live[:0]
			for _, le := range live {
				if le.Client != e.Client || le.SubID != e.SubID {
					kept = append(kept, le)
				}
			}
			live = kept
		default:
			i := r.Intn(len(live))
			if !tbl.Remove(live[i]) {
				t.Fatalf("step %d: remove of live entry failed", step)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}

		if step%7 == 0 {
			sn := tbl.Snapshot()
			if sn.Len() != tbl.Len() {
				t.Fatalf("step %d: snapshot len %d, table len %d", step, sn.Len(), tbl.Len())
			}
			for p := 0; p < 3; p++ {
				n := randNotification(r)
				from := randHop(r)
				want := tbl.MatchingEntriesLinear(n, from)
				if idx := tbl.MatchingEntries(n, from); !entriesEqual(idx, want) {
					t.Fatalf("step %d: index/linear mismatch\nindex:  %v\nlinear: %v", step, idx, want)
				}
				got := sn.MatchingEntries(n, from)
				if !entriesEqual(got, want) {
					t.Fatalf("step %d: snapshot/linear mismatch\nsnap:   %v\nlinear: %v", step, got, want)
				}
				for _, e := range want {
					if isConjunctionMatch(e) {
						conj++
					}
				}
				// Re-probe this snapshot at the end of the run: results
				// must be unchanged by everything that happens after.
				nn, ff, ww := n, from, want
				t.Cleanup(func() {
					end := sn.MatchingEntries(nn, ff)
					if !entriesEqual(end, ww) {
						t.Fatalf("frozen snapshot drifted:\nthen: %v\nnow:  %v", ww, end)
					}
				})
			}
			held = append(held, sn)
		}
	}
	if len(held) < 2 {
		t.Fatal("workload held too few snapshots")
	}
	st := tbl.SnapshotStats()
	if st.Builds == 0 || st.Builds != st.Clones+st.Rebuilds {
		t.Fatalf("inconsistent snapshot stats: %+v", st)
	}
	if st.Gen == 0 {
		t.Fatal("mutations did not bump the generation")
	}
	if st.Rebuilds == 0 {
		t.Fatalf("the drain phase never rebuilt: %+v", st)
	}
	if conj < 20 {
		t.Fatalf("only %d conjunction matches: the generator misses the access-row path", conj)
	}
}

// TestSnapshotCaching checks the lazy copy-on-write contract: repeated
// Snapshot calls without mutation return the identical pointer; any
// mutation invalidates it and strictly increases the generation.
func TestSnapshotCaching(t *testing.T) {
	tbl := NewTable()
	r := rand.New(rand.NewSource(7))
	e1, e2 := randEntry(r), randEntry(r)
	tbl.Add(e1)

	s1 := tbl.Snapshot()
	if tbl.Snapshot() != s1 {
		t.Fatal("unmutated table rebuilt its snapshot")
	}
	tbl.Add(e2)
	s2 := tbl.Snapshot()
	if s2 == s1 {
		t.Fatal("mutation did not invalidate the cached snapshot")
	}
	if s2.Gen() <= s1.Gen() {
		t.Fatalf("generation not monotonic: %d then %d", s1.Gen(), s2.Gen())
	}
	if s1.Len() != 1 || s2.Len() != 2 {
		t.Fatalf("snapshot lens = %d, %d", s1.Len(), s2.Len())
	}
	// No-op mutations (removing an absent entry) must not invalidate.
	tbl.Remove(randEntry(r))
	if tbl.Snapshot() != s2 {
		t.Fatal("no-op remove invalidated the snapshot")
	}
	st := tbl.SnapshotStats()
	if st.Builds != 2 {
		t.Fatalf("expected exactly 2 builds, got %+v", st)
	}
}

// TestSnapshotRebuildPolicy forces heavy churn so the free-slot list
// dominates the slot array and checks that the builder switches from
// cloning to compacting rebuilds (and that rebuilt snapshots still match
// correctly).
func TestSnapshotRebuildPolicy(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tbl := NewTable()
	var es []Entry
	for i := 0; i < 64; i++ {
		e := randEntry(r)
		if tbl.Add(e) {
			es = append(es, e)
		}
	}
	tbl.Snapshot()
	if st := tbl.SnapshotStats(); st.Clones != 1 || st.Rebuilds != 0 {
		t.Fatalf("dense table should clone: %+v", st)
	}
	// Remove most entries: the live slot array is now mostly holes.
	for _, e := range es[4:] {
		tbl.Remove(e)
	}
	sn := tbl.Snapshot()
	if st := tbl.SnapshotStats(); st.Rebuilds != 1 {
		t.Fatalf("churned table should rebuild: %+v", st)
	}
	for i := 0; i < 20; i++ {
		n := randNotification(r)
		from := randHop(r)
		if !entriesEqual(sn.MatchingEntries(n, from), tbl.MatchingEntries(n, from)) {
			t.Fatal("rebuilt snapshot disagrees with live table")
		}
	}
}

// TestSnapshotConcurrentMatch hammers one snapshot from many goroutines
// while the live table keeps mutating and rebuilding new snapshots —
// the -race guarantee the parallel publish pipeline relies on.
func TestSnapshotConcurrentMatch(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	tbl := NewTable()
	for i := 0; i < 128; i++ {
		tbl.Add(randEntry(r))
	}
	sn := tbl.Snapshot()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := randNotification(rr)
				sn.EachMatchingEntry(n, wire.Hop{}, func(e *Entry) {
					if e.Filter.ID() == "" && len(e.Filter.Constraints()) > 0 {
						t.Error("corrupt entry observed")
					}
				})
			}
		}(int64(g) + 1)
	}
	for i := 0; i < 200; i++ {
		tbl.Add(randEntry(r))
		if i%3 == 0 {
			tbl.Snapshot()
		}
	}
	close(stop)
	wg.Wait()
	if st := tbl.SnapshotStats(); st.Builds == 0 {
		t.Fatalf("no builds recorded: %+v", st)
	}
}

// TestSnapshotEmptyTable checks the degenerate case.
func TestSnapshotEmptyTable(t *testing.T) {
	tbl := NewTable()
	sn := tbl.Snapshot()
	if sn.Len() != 0 {
		t.Fatalf("empty snapshot len = %d", sn.Len())
	}
	if es := sn.MatchingEntries(randNotification(rand.New(rand.NewSource(1))), wire.Hop{}); len(es) != 0 {
		t.Fatalf("empty snapshot matched %v", es)
	}
}
