package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

// faultLinkDelay is the link latency of the fault-A overlay. The junction
// flips two link delays after MoveTo returns, so a tick published within
// that window is in flight on both the old and the new path, every time;
// on zero-delay links the same race is lost only now and then. 20 ms
// leaves room for the host to stall the publisher.
const faultLinkDelay = 20 * time.Millisecond

// faultTrials reproduces the handoff-duplicate fault (fault A) n times on
// a separate overlay whose inputs do not depend on the seed:
//
//  1. BuildBinaryTree("a", 2, 20ms); the producer at a0 advertises
//     type = "tick".
//  2. Trial k has two clients with a mobile subscription to lane k of
//     the ticks: m0_k attaches at a3 and m1_k at a4.
//  3. Every m0_k moves to a6 and the overlay settles.
//  4. Every m1_k moves to a6, and tick k is published as soon as its
//     move returns.
//
// m1_k then gets tick k twice: replayed from its old border broker and
// live over m0_k's route into its pending buffer at a6, with consecutive
// Seq numbers. Lanes keep the trials apart, so they run together. Each
// duplicated tick is one failed operation; any other anomaly (a lost
// tick, a duplicate elsewhere) is a violation.
func faultTrials(n int, v *violations) (dups int, err error) {
	nw := core.NewNetwork(core.WithRelocTimeout(-1))
	defer nw.Close()
	ids, err := nw.BuildBinaryTree("a", 2, faultLinkDelay)
	if err != nil {
		return 0, err
	}
	settle := func(hops int) {
		time.Sleep(time.Duration(hops) * faultLinkDelay)
		nw.Settle()
	}
	border, err := nw.Broker(ids[6])
	if err != nil {
		return 0, err
	}
	// relocated waits until the new border broker has completed want
	// relocations in all.
	relocated := func(want uint64) error {
		deadline := time.Now().Add(30 * time.Second)
		for border.Stats().RelocationsCompleted < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("fault trials: %d of %d relocations completed", border.Stats().RelocationsCompleted, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
		return nil
	}
	prod, err := nw.NewClient("ticker", ids[0], nil)
	if err != nil {
		return 0, err
	}
	if err := prod.Advertise("adv", filter.MustParse(`type = "tick"`)); err != nil {
		return 0, err
	}
	settle(10)
	// logs[2k] is m0_k's, logs[2k+1] m1_k's; each is appended only by
	// its client's delivery goroutine.
	logs := make([][]core.Event, 2*n)
	clients := make([]*core.Client, 2*n)
	for i := range clients {
		i := i
		at := ids[3+i%2]
		c, err := nw.NewClient(wire.ClientID(fmt.Sprintf("m%d_%d", i%2, i/2)), at, func(e core.Event) { logs[i] = append(logs[i], e) })
		if err != nil {
			return 0, err
		}
		if err := c.Subscribe(core.SubSpec{ID: "tick", Filter: tickFilter(i / 2), Mobile: true}); err != nil {
			return 0, err
		}
		clients[i] = c
	}
	settle(10)
	for k := 0; k < n; k++ {
		if err := clients[2*k].MoveTo(ids[6]); err != nil {
			return 0, err
		}
	}
	if err := relocated(uint64(n)); err != nil {
		return 0, err
	}
	settle(2)
	for k := 0; k < n; k++ {
		if err := clients[2*k+1].MoveTo(ids[6]); err != nil {
			return 0, err
		}
		note := message.NewAttrs(
			message.Attr{Name: "i", Value: message.Int(int64(k))},
			message.Attr{Name: "lane", Value: message.Int(int64(k))},
			message.Attr{Name: "type", Value: message.String("tick")},
		)
		if err := prod.Publish(note); err != nil {
			return 0, err
		}
	}
	if err := relocated(uint64(2 * n)); err != nil {
		return 0, err
	}
	settle(4)
	for _, c := range clients {
		c.Flush()
	}
	for i, log := range logs {
		k, moved := i/2, i%2 == 1
		for j, e := range log {
			if e.Seq != uint64(j+1) {
				v.add("fault trial %d client m%d: delivery %d has Seq %d", k, i%2, j, e.Seq)
			}
			if got := attrInt(e.Notification, "i"); got != int64(k) {
				v.add("fault trial %d client m%d: got tick %d", k, i%2, got)
			}
		}
		switch {
		case moved && len(log) == 2:
			dups++
		case len(log) != 1:
			v.add("fault trial %d client m%d: tick delivered %d times", k, i%2, len(log))
		}
	}
	return dups, nil
}
