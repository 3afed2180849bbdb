package main

import (
	"sort"
	"time"

	"repro/internal/filter"
	"repro/internal/location"
	"repro/internal/locfilter"
	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/wire"
)

// Replayed layer calls: each reruns one public function of a layer on
// the workload's own generated inputs, outside the overlay, in batches.
// A batch is one span; the reported figure is the median over batches of
// the batch time divided by the calls in it, so one descheduled batch
// does not move it.

const replayBatches = 15

// timeBatches runs fn (which makes `calls` calls) replayBatches times and
// returns the median time per call in ns.
func timeBatches(tr *Tracer, name string, calls int, fn func(parent int32)) float64 {
	per := make([]float64, 0, replayBatches)
	for b := 0; b < replayBatches; b++ {
		tk := tr.Begin()
		t0 := time.Now()
		fn(tk.sid)
		el := time.Since(t0)
		tr.End(tk, name, int64(b), 0)
		per = append(per, float64(el.Nanoseconds())/float64(calls))
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// replayMatch replays Table.EachMatchingEntry on a copy of a broker's
// table. It returns ns per call and entries visited per notification.
func replayMatch(tr *Tracer, entries []routing.Entry, notifs []message.Notification) (ns, matched float64) {
	t := routing.NewTable()
	for _, e := range entries {
		t.Add(e)
	}
	from := wire.ClientHop("perfbench-replay")
	var visited int
	visit := func(*routing.Entry) { visited++ }
	ns = timeBatches(tr, "routing.EachMatchingEntry", len(notifs), func(int32) {
		for _, n := range notifs {
			t.EachMatchingEntry(n, from, visit)
		}
	})
	return ns, float64(visited) / float64(replayBatches*len(notifs))
}

// replayFilterMatches replays Filter.Matches of every filter against the
// notifications (at most 64 of them).
func replayFilterMatches(tr *Tracer, fs []filter.Filter, notifs []message.Notification) float64 {
	if len(notifs) > 64 {
		notifs = notifs[:64]
	}
	var hits int
	ns := timeBatches(tr, "filter.Matches", len(fs)*len(notifs), func(int32) {
		for _, n := range notifs {
			for _, f := range fs {
				if f.Matches(n) {
					hits++
				}
			}
		}
	})
	sinkInt = hits
	return ns
}

// replayTableAdd replays Table.Add of the filters into a fresh table per
// batch; it returns µs per Add.
func replayTableAdd(tr *Tracer, fs []filter.Filter) float64 {
	hop := wire.BrokerHop("perfbench-replay")
	return timeBatches(tr, "routing.Table.Add", len(fs), func(int32) {
		t := routing.NewTable()
		for _, f := range fs {
			t.Add(routing.Entry{Filter: f, Hop: hop})
		}
	}) / 1e3
}

// replayForwardAdd replays Forwarder.AddFilter (covering) of the filters
// toward one neighbor; it returns µs per call.
func replayForwardAdd(tr *Tracer, fs []filter.Filter) float64 {
	hop := wire.BrokerHop("perfbench-replay")
	return timeBatches(tr, "routing.Forwarder.AddFilter", len(fs), func(int32) {
		fw := routing.NewForwarder(routing.Covering)
		for _, f := range fs {
			fw.AddFilter(hop, f)
		}
	}) / 1e3
}

// replayCodec replays the notification and wire codecs on the
// notifications: message.DecodeNotification of the encoded body,
// wire.Encode of the publish message and wire.Decode of its frame. It
// returns ns per call for each.
func replayCodec(tr *Tracer, notifs []message.Notification) (msgDecode, wireEncode, wireDecode float64) {
	bodies := make([][]byte, len(notifs))
	frames := make([][]byte, len(notifs))
	for i, n := range notifs {
		bodies[i] = message.AppendNotification(nil, n)
		f, err := wire.Encode(wire.NewPublish(n))
		if err != nil {
			panic(err) // generated notifications always encode
		}
		frames[i] = f
	}
	msgDecode = timeBatches(tr, "message.DecodeNotification", len(bodies), func(int32) {
		for _, b := range bodies {
			if _, _, err := message.DecodeNotification(b); err != nil {
				panic(err)
			}
		}
	})
	wireEncode = timeBatches(tr, "wire.Encode", len(notifs), func(int32) {
		for _, n := range notifs {
			if _, err := wire.Encode(wire.NewPublish(n)); err != nil {
				panic(err)
			}
		}
	})
	wireDecode = timeBatches(tr, "wire.Decode", len(frames), func(int32) {
		for _, f := range frames {
			// Decode keeps the frame as the message's cached encoding;
			// a fresh copy per call keeps the replay honest.
			c := append([]byte(nil), f...)
			if _, err := wire.Decode(c); err != nil {
				panic(err)
			}
		}
	})
	return msgDecode, wireEncode, wireDecode
}

// replayInstantiate replays locfilter.Instantiate of the base filter at
// the given locations and widening steps; it returns ns per call.
func replayInstantiate(tr *Tracer, base filter.Filter, attr string, g *location.Graph, locs []location.Location, steps []int) float64 {
	return timeBatches(tr, "locfilter.Instantiate", len(locs)*len(steps), func(int32) {
		for _, x := range locs {
			for _, q := range steps {
				if _, err := locfilter.Instantiate(base, attr, g, x, q); err != nil {
					panic(err)
				}
			}
		}
	})
}

// replayClientEntries replays the relocation table calls for one client
// subscription on a table that holds the ballast plus the roamers'
// entries: ClientEntries, RemoveClient and Add (the flip). It returns µs
// per triple.
func replayClientEntries(tr *Tracer, ballast []filter.Filter, roamers []routing.Entry) float64 {
	t := routing.NewTable()
	up := wire.BrokerHop("perfbench-parent")
	for _, f := range ballast {
		t.Add(routing.Entry{Filter: f, Hop: up})
	}
	for _, e := range roamers {
		t.Add(e)
	}
	other := wire.BrokerHop("perfbench-other")
	return timeBatches(tr, "routing.relocation-batch", len(roamers), func(parent int32) {
		for _, e := range roamers {
			tk := tr.Begin()
			got := t.ClientEntries(e.Client, e.SubID)
			t.RemoveClient(e.Client, e.SubID)
			flipped := e
			if len(got) > 0 && got[0].Hop == e.Hop {
				flipped.Hop = other
			}
			t.Add(flipped)
			tr.End(tk, "routing.ClientEntries+RemoveClient+Add", -1, parent)
		}
	}) / 1e3
}

var sinkInt int
