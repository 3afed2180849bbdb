package main

import (
	"strings"
	"testing"
)

// seqLog numbers deliveries 1, 2, 3, … the way a broker would.
func seqLog(ds ...delivery) []delivery {
	for i := range ds {
		ds[i].Seq = uint64(i + 1)
	}
	return ds
}

func TestCheckExact(t *testing.T) {
	expected := []pkey{{0, 1}, {1, 2}, {0, 3}, {1, 4}}
	good := seqLog(delivery{Prod: 1, Idx: 2}, delivery{Prod: 0, Idx: 1}, delivery{Prod: 0, Idx: 3}, delivery{Prod: 1, Idx: 4})
	cases := []struct {
		name string
		got  []delivery
		want string // substring of the first violation; "" = clean
	}{
		{"clean, producers interleaved", good, ""},
		{"loss", seqLog(delivery{Prod: 0, Idx: 1}, delivery{Prod: 1, Idx: 2}, delivery{Prod: 0, Idx: 3}), "lost producer 1 notification 4"},
		{"duplicate", seqLog(delivery{Prod: 0, Idx: 1}, delivery{Prod: 1, Idx: 2}, delivery{Prod: 1, Idx: 2}, delivery{Prod: 0, Idx: 3}, delivery{Prod: 1, Idx: 4}), "duplicate"},
		{"reorder within a producer", seqLog(delivery{Prod: 0, Idx: 3}, delivery{Prod: 0, Idx: 1}, delivery{Prod: 1, Idx: 2}, delivery{Prod: 1, Idx: 4}), "producer 0 notification 1 after 3"},
		{"seq gap", []delivery{{Prod: 0, Idx: 1, Seq: 1}, {Prod: 1, Idx: 2, Seq: 3}, {Prod: 0, Idx: 3, Seq: 4}, {Prod: 1, Idx: 4, Seq: 5}}, "has Seq 3, want 2"},
		{"unexpected", seqLog(delivery{Prod: 0, Idx: 1}, delivery{Prod: 1, Idx: 2}, delivery{Prod: 0, Idx: 3}, delivery{Prod: 1, Idx: 4}, delivery{Prod: 0, Idx: 9}), "unexpected producer 0 notification 9"},
	}
	for _, tc := range cases {
		var v violations
		checkExact("s", expected, tc.got, &v)
		assertViolation(t, tc.name, v, tc.want)
	}
}

func TestCheckRoamer(t *testing.T) {
	published := []int64{10, 11, 12}
	cases := []struct {
		name string
		got  []delivery
		dups int
		want string
	}{
		{"clean", seqLog(delivery{Idx: 10}, delivery{Idx: 11, Replayed: true}, delivery{Idx: 12}), 0, ""},
		{"loss", seqLog(delivery{Idx: 10}, delivery{Idx: 12}), 0, "lost notification 11"},
		{"handoff duplicate is counted, not a violation", seqLog(delivery{Idx: 10}, delivery{Idx: 11, Replayed: true}, delivery{Idx: 11}, delivery{Idx: 12}), 1, ""},
		{"reorder", seqLog(delivery{Idx: 11}, delivery{Idx: 10}, delivery{Idx: 12}), 0, "notification 10 after 11"},
		{"seq gap", []delivery{{Idx: 10, Seq: 1}, {Idx: 11, Seq: 3}, {Idx: 12, Seq: 4}}, 0, "Seq gap 1 -> 3"},
		{"seq not from 1", []delivery{{Idx: 10, Seq: 2}, {Idx: 11, Seq: 3}, {Idx: 12, Seq: 4}}, 0, "first delivery has Seq 2"},
		{"unexpected", seqLog(delivery{Idx: 10}, delivery{Idx: 11}, delivery{Idx: 12}, delivery{Idx: 99}), 0, "unexpected notification 99"},
	}
	for _, tc := range cases {
		var v violations
		if dups := checkRoamer("r", published, tc.got, &v); dups != tc.dups {
			t.Errorf("%s: %d duplicates, want %d", tc.name, dups, tc.dups)
		}
		assertViolation(t, tc.name, v, tc.want)
	}
}

func TestCheckOnce(t *testing.T) {
	published := []int64{3, 7}
	cases := []struct {
		name string
		got  []delivery
		want string
	}{
		{"clean", seqLog(delivery{Idx: 3}, delivery{Idx: 7}), ""},
		{"loss", seqLog(delivery{Idx: 3}), "probe 7 lost"},
		{"duplicate", seqLog(delivery{Idx: 3}, delivery{Idx: 3}, delivery{Idx: 7}), "probe 3 delivered twice"},
		{"someone else's probe", seqLog(delivery{Idx: 3}, delivery{Idx: 5}, delivery{Idx: 7}), "probe 5 is not addressed here"},
	}
	for _, tc := range cases {
		var v violations
		checkOnce("p", published, tc.got, &v)
		assertViolation(t, tc.name, v, tc.want)
	}
}

func TestCheckWalker(t *testing.T) {
	// The walker is at A from 0, calls SetLocation(B) at 100 (returns at
	// 110), and calls SetLocation(C) at 200 (returns at 210).
	stays := []stay{
		{Cell: "A", From: 0, Ret: 1, Until: 100, UntilRet: 110},
		{Cell: "B", From: 100, Ret: 110, Until: 200, UntilRet: 210},
		{Cell: "C", From: 200, Ret: 210, Until: forever, UntilRet: forever},
	}
	events := []parkEvent{
		0: {Cell: "A", Eligible: true, PubStart: 50, PubEnd: 51},
		1: {Cell: "B", Eligible: true, PubStart: 120, PubEnd: 121},
		2: {Cell: "B", Eligible: true, PubStart: 130, PubEnd: 131},
		3: {Cell: "B", Eligible: true, PubStart: 140, PubEnd: 141},
		4: {Cell: "D", Eligible: true, PubStart: 150, PubEnd: 151},
		5: {Cell: "B", Eligible: false, PubStart: 160, PubEnd: 161},
		6: {Cell: "A", Eligible: true, PubStart: 105, PubEnd: 106},
		7: {Cell: "A", Eligible: true, PubStart: 150, PubEnd: 151},
	}
	cases := []struct {
		name string
		got  []delivery
		want string
	}{
		{"clean", seqLog(delivery{Idx: 0, At: 60}, delivery{Idx: 1, At: 125}, delivery{Idx: 2, At: 135}, delivery{Idx: 3, At: 145}), ""},
		{"old cell in flight across the move is safe", seqLog(delivery{Idx: 0, At: 60}, delivery{Idx: 6, At: 108}, delivery{Idx: 1, At: 125}, delivery{Idx: 2, At: 135}, delivery{Idx: 3, At: 145}), ""},
		{"cell never occupied", seqLog(delivery{Idx: 0, At: 60}, delivery{Idx: 1, At: 125}, delivery{Idx: 2, At: 135}, delivery{Idx: 3, At: 145}, delivery{Idx: 4, At: 155}), "event 4 for D delivered while the walker was elsewhere"},
		{"old cell published after the move", seqLog(delivery{Idx: 0, At: 60}, delivery{Idx: 1, At: 125}, delivery{Idx: 2, At: 135}, delivery{Idx: 3, At: 145}, delivery{Idx: 7, At: 160}), "event 7 for A delivered while the walker was elsewhere"},
		{"blackout inside a stay", seqLog(delivery{Idx: 0, At: 60}, delivery{Idx: 1, At: 125}, delivery{Idx: 3, At: 145}), "event 2 for B missed during a stay"},
		{"filtered event delivered", seqLog(delivery{Idx: 0, At: 60}, delivery{Idx: 1, At: 125}, delivery{Idx: 2, At: 135}, delivery{Idx: 3, At: 145}, delivery{Idx: 5, At: 165}), "does not pass the filter"},
		{"duplicate", seqLog(delivery{Idx: 0, At: 60}, delivery{Idx: 0, At: 61}, delivery{Idx: 1, At: 125}, delivery{Idx: 2, At: 135}, delivery{Idx: 3, At: 145}), "event 0 delivered twice"},
		{"seq gap", []delivery{{Idx: 0, At: 60, Seq: 1}, {Idx: 1, At: 125, Seq: 3}, {Idx: 2, At: 135, Seq: 4}, {Idx: 3, At: 145, Seq: 5}}, "has Seq 3, want 2"},
	}
	for _, tc := range cases {
		var v violations
		checkWalker("w", stays, events, tc.got, &v)
		assertViolation(t, tc.name, v, tc.want)
	}
}

func assertViolation(t *testing.T, name string, v violations, want string) {
	t.Helper()
	if want == "" {
		if v.total != 0 {
			t.Errorf("%s: unexpected violations %q", name, v.list)
		}
		return
	}
	for _, s := range v.list {
		if strings.Contains(s, want) {
			return
		}
	}
	t.Errorf("%s: no violation containing %q in %q", name, want, v.list)
}
