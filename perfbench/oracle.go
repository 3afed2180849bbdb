package main

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/message"
)

// The oracles below judge delivery logs against what the generator
// published. They use only the generator's own records: no program code
// decides what should have matched.

// delivery is one handler invocation as the benchmark logged it.
type delivery struct {
	Prod     int    // producer index
	Idx      int64  // notification index, increasing in publish order per producer
	Seq      uint64 // sequence number the broker assigned
	Replayed bool
	At       int64  // handler time, ns since the run epoch
	Sum      uint64 // digest of the delivered notification, where checked
}

// digest hashes a notification's attribute names and values (FNV-1a),
// so a delivered notification can be compared with the published one.
func digest(n message.Notification) uint64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	for i := 0; i < n.Len(); i++ {
		a := n.At(i)
		mix(a.Name)
		switch a.Value.Kind() {
		case message.KindString:
			mix("s" + a.Value.Str())
		case message.KindInt:
			mix("i" + strconv.FormatInt(a.Value.IntVal(), 10))
		default:
			mix("?" + a.Value.String())
		}
	}
	return h
}

// pkey names one published notification.
type pkey struct {
	Prod int
	Idx  int64
}

// maxViolations caps how many violations one check reports.
const maxViolations = 20

type violations struct {
	list  []string
	total int
}

func (v *violations) add(format string, args ...any) {
	v.total++
	if len(v.list) < maxViolations {
		v.list = append(v.list, fmt.Sprintf(format, args...))
	}
}

// checkExact checks one subscription of the fleet and tcp-transit
// workloads: it receives exactly the expected notifications, once each,
// in publish order per producer, numbered 1, 2, 3, … in delivery order.
func checkExact(name string, expected []pkey, got []delivery, v *violations) {
	want := make(map[pkey]bool, len(expected))
	for _, k := range expected {
		want[k] = true
	}
	seen := make(map[pkey]bool, len(got))
	last := map[int]int64{}
	for i, d := range got {
		if d.Seq != uint64(i+1) {
			v.add("%s: delivery %d has Seq %d, want %d", name, i, d.Seq, i+1)
		}
		k := pkey{d.Prod, d.Idx}
		switch {
		case seen[k]:
			v.add("%s: duplicate of producer %d notification %d", name, d.Prod, d.Idx)
			continue
		case !want[k]:
			v.add("%s: unexpected producer %d notification %d", name, d.Prod, d.Idx)
		}
		seen[k] = true
		if l, ok := last[d.Prod]; ok && d.Idx < l {
			v.add("%s: producer %d notification %d after %d", name, d.Prod, d.Idx, l)
		}
		last[d.Prod] = d.Idx
	}
	for _, k := range expected {
		if !seen[k] {
			v.add("%s: lost producer %d notification %d", name, k.Prod, k.Idx)
		}
	}
}

// checkRoamer checks the tick deliveries of one roaming subscription:
// nothing published is lost or unexpected, first copies arrive in publish
// order, and Seq is gap-free from 1. Repeated copies are returned as a
// count, not reported as violations: they are the handoff-duplicate
// fault, which the benchmark counts as failed operations.
func checkRoamer(name string, published []int64, got []delivery, v *violations) (dups int) {
	want := make(map[int64]bool, len(published))
	for _, i := range published {
		want[i] = true
	}
	seen := make(map[int64]bool, len(got))
	last := int64(-1)
	for i, d := range got {
		if i == 0 && d.Seq != 1 {
			v.add("%s: first delivery has Seq %d, want 1", name, d.Seq)
		}
		if i > 0 && d.Seq != got[i-1].Seq+1 {
			v.add("%s: Seq gap %d -> %d", name, got[i-1].Seq, d.Seq)
		}
		if seen[d.Idx] {
			dups++
			continue
		}
		seen[d.Idx] = true
		if !want[d.Idx] {
			v.add("%s: unexpected notification %d", name, d.Idx)
			continue
		}
		if d.Idx < last {
			v.add("%s: notification %d after %d", name, d.Idx, last)
		}
		last = d.Idx
	}
	for _, i := range published {
		if !seen[i] {
			v.add("%s: lost notification %d", name, i)
		}
	}
	return dups
}

// checkOnce checks a personal probe subscription: every probe published
// for it arrives exactly once, nothing else arrives, and Seq is gap-free
// from 1.
func checkOnce(name string, published []int64, got []delivery, v *violations) {
	want := make(map[int64]bool, len(published))
	for _, i := range published {
		want[i] = true
	}
	seen := make(map[int64]bool, len(got))
	for i, d := range got {
		if d.Seq != uint64(i+1) {
			v.add("%s: delivery %d has Seq %d, want %d", name, i, d.Seq, i+1)
		}
		switch {
		case !want[d.Idx]:
			v.add("%s: probe %d is not addressed here", name, d.Idx)
		case seen[d.Idx]:
			v.add("%s: probe %d delivered twice", name, d.Idx)
		}
		seen[d.Idx] = true
	}
	for _, i := range published {
		if !seen[i] {
			v.add("%s: probe %d lost", name, i)
		}
	}
}

// stay is one interval a walker spent at a cell. From is when the
// SetLocation call that moved it there started (the subscribe call for
// the first stay) and Ret when that call returned; Until is when the next
// SetLocation call started and UntilRet when it returned (both
// "forever" for the last stay).
type stay struct {
	Cell            string
	From, Ret       int64
	Until, UntilRet int64
}

// forever marks an open-ended stay.
const forever = int64(1) << 62

// parkEvent is one published park event. Eligible is whether it passes
// the walkers' non-location constraints; PubStart and PubEnd bracket the
// Publish call.
type parkEvent struct {
	Cell             string
	Eligible         bool
	PubStart, PubEnd int64
}

// checkWalker checks one location-dependent subscription.
//
// Safety: every delivered event is eligible, delivered once, and for a
// cell the walker occupied at some instant between the publish call and
// the handler.
//
// No blackout: within each stay, consider the events for that cell
// published after the SetLocation call returned. Let L be the last of
// them (by publish time) whose handler ran before the next SetLocation
// call. Every such event whose publish call ended before L's began must
// be delivered.
func checkWalker(name string, stays []stay, events []parkEvent, got []delivery, v *violations) {
	at := make(map[int64]int64, len(got))
	for i, d := range got {
		if d.Seq != uint64(i+1) {
			v.add("%s: delivery %d has Seq %d, want %d", name, i, d.Seq, i+1)
		}
		if d.Idx < 0 || d.Idx >= int64(len(events)) {
			v.add("%s: unknown event %d", name, d.Idx)
			continue
		}
		if _, dup := at[d.Idx]; dup {
			v.add("%s: event %d delivered twice", name, d.Idx)
			continue
		}
		at[d.Idx] = d.At
		e := events[d.Idx]
		if !e.Eligible {
			v.add("%s: event %d does not pass the filter", name, d.Idx)
			continue
		}
		ok := false
		for _, s := range stays {
			if s.Cell == e.Cell && s.From <= d.At && e.PubStart <= s.UntilRet {
				ok = true
				break
			}
		}
		if !ok {
			v.add("%s: event %d for %s delivered while the walker was elsewhere", name, d.Idx, e.Cell)
		}
	}

	byCell := map[string][]int64{}
	for i, e := range events {
		if e.Eligible {
			byCell[e.Cell] = append(byCell[e.Cell], int64(i))
		}
	}
	for _, idx := range byCell {
		sort.Slice(idx, func(a, b int) bool { return events[idx[a]].PubStart < events[idx[b]].PubStart })
	}
	for _, s := range stays {
		cands := byCell[s.Cell]
		lo := sort.Search(len(cands), func(i int) bool { return events[cands[i]].PubStart >= s.Ret })
		hi := sort.Search(len(cands), func(i int) bool { return events[cands[i]].PubStart >= s.Until })
		window := cands[lo:hi]
		last := int64(-1)
		for _, i := range window {
			if t, ok := at[i]; ok && t < s.Until {
				if last < 0 || events[i].PubStart > events[last].PubStart {
					last = i
				}
			}
		}
		if last < 0 {
			continue
		}
		for _, i := range window {
			if events[i].PubEnd > events[last].PubStart {
				continue
			}
			if _, ok := at[i]; !ok {
				v.add("%s: event %d for %s missed during a stay (blackout)", name, i, s.Cell)
			}
		}
	}
}
