package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/wire"
)

// fleet: fleet telemetry. A 15-broker binary tree on zero-delay
// in-process links with the covering strategy; two producers at the
// leaves publish vehicle reports at a fixed rate; a client at every
// broker holds fleetSubsPerBroker region, fleet and speed-range
// subscriptions, so a report matches only a few of them. Nothing roams
// and nothing is encoded: matching and fan-out do the work.
const (
	fleetDepth         = 3 // 15 brokers
	fleetSubsPerBroker = 150
	fleetRegions       = 64
	fleetFleets        = 16
	fleetSpeeds        = 160
	fleetRate          = 500 // reports per second per producer
	fleetBurstReports  = 8000
	fleetBursts        = 21
)

// fleetSub is one generated subscription: kind 0 is region ∧ fleet ∧
// speed range, kind 1 region ∧ narrow speed range, kind 2 fleet ∧ narrow
// speed range.
type fleetSub struct {
	kind, region, fleet, lo, hi, broker int
}

func (s fleetSub) filter() filter.Filter {
	speed := filter.Range("speed", message.Int(int64(s.lo)), message.Int(int64(s.hi)))
	region := filter.EQ("region", message.String(fmt.Sprintf("r%d", s.region)))
	fl := filter.EQ("fleet", message.String(fmt.Sprintf("f%d", s.fleet)))
	switch s.kind {
	case 0:
		return filter.MustNew(region, fl, speed)
	case 1:
		return filter.MustNew(region, speed)
	default:
		return filter.MustNew(fl, speed)
	}
}

type fleetClient struct {
	c   *core.Client
	lat latLog
}

type fleet struct {
	rng      *rand.Rand
	subs     []fleetSub
	byRegion [][]int // kinds 0 and 1
	byFleet  [][]int // kind 2
	sample   []message.Notification

	// Per-build state.
	epoch     time.Time
	tr        *Tracer
	nw        *core.Network
	ids       []wire.BrokerID
	prods     [2]*core.Client
	clients   []*fleetClient
	logs      [][]delivery // per subscription, appended by its client's handler
	expected  [][]pkey     // per subscription, in publish order
	want      int64        // deliveries expected so far
	delivered atomic.Int64
	pubs      atomic.Int64
	nextIdx   int64
	phase     atomic.Int32
	pubErrs   atomic.Int64
}

func newFleet(seed int64) *fleet {
	f := &fleet{rng: rand.New(rand.NewSource(seed))}
	f.byRegion = make([][]int, fleetRegions)
	f.byFleet = make([][]int, fleetFleets)
	brokers := 1<<(fleetDepth+1) - 1
	for b := 0; b < brokers; b++ {
		for j := 0; j < fleetSubsPerBroker; j++ {
			s := fleetSub{broker: b, region: f.rng.Intn(fleetRegions), fleet: f.rng.Intn(fleetFleets)}
			switch x := f.rng.Intn(10); {
			case x < 8:
				s.kind = 0
				w := 10 + f.rng.Intn(31)
				s.lo = f.rng.Intn(fleetSpeeds - w)
				s.hi = s.lo + w
			case x < 9:
				s.kind = 1
				w := 2 + f.rng.Intn(7)
				s.lo = f.rng.Intn(fleetSpeeds - w)
				s.hi = s.lo + w
			default:
				s.kind = 2
				w := 2 + f.rng.Intn(7)
				s.lo = f.rng.Intn(fleetSpeeds - w)
				s.hi = s.lo + w
			}
			k := len(f.subs)
			f.subs = append(f.subs, s)
			if s.kind == 2 {
				f.byFleet[s.fleet] = append(f.byFleet[s.fleet], k)
			} else {
				f.byRegion[s.region] = append(f.byRegion[s.region], k)
			}
		}
	}
	return f
}

func (f *fleet) setupReps() int          { return 5 }
func (f *fleet) roundLen() time.Duration { return time.Second }
func (f *fleet) bursts() int             { return fleetBursts }
func (f *fleet) published() int64        { return f.pubs.Load() }

func (f *fleet) build(tr *Tracer) error {
	f.epoch = time.Now()
	f.tr = tr
	f.nw = core.NewNetwork(core.WithStrategy(routing.Covering))
	ids, err := f.nw.BuildBinaryTree("f", fleetDepth, 0)
	if err != nil {
		return err
	}
	f.ids = ids
	leaves := core.TreeLeaves(ids, fleetDepth)
	for p, at := range []wire.BrokerID{leaves[0], leaves[len(leaves)-1]} {
		c, err := f.nw.NewClient(wire.ClientID(fmt.Sprintf("producer%d", p)), at, nil)
		if err != nil {
			return err
		}
		f.prods[p] = c
	}
	f.logs = make([][]delivery, len(f.subs))
	f.expected = make([][]pkey, len(f.subs))
	f.want, f.nextIdx = 0, 0
	f.delivered.Store(0)
	f.pubs.Store(0)
	f.phase.Store(-1)
	f.clients = make([]*fleetClient, len(ids))
	for b, id := range ids {
		cl := &fleetClient{}
		c, err := f.nw.NewClient(wire.ClientID(fmt.Sprintf("consumer%d", b)), id, f.handler(cl))
		if err != nil {
			return err
		}
		cl.c = c
		f.clients[b] = cl
	}
	for k, s := range f.subs {
		tk := tr.Begin()
		err := f.clients[s.broker].c.Subscribe(core.SubSpec{ID: wire.SubID("s" + strconv.Itoa(k)), Filter: s.filter()})
		tr.End(tk, "core.Subscribe", int64(k), 0)
		if err != nil {
			return err
		}
	}
	tk := tr.Begin()
	f.nw.Settle()
	tr.End(tk, "core.Settle", -1, 0)
	return nil
}

func (f *fleet) close() {
	if f.nw != nil {
		f.nw.Close()
		f.nw = nil
	}
}

func (f *fleet) handler(cl *fleetClient) core.Handler {
	return func(e core.Event) {
		now := since(f.epoch)
		tk := f.tr.Begin()
		n := e.Notification
		idx := attrInt(n, "i")
		k, _ := strconv.Atoi(string(e.SubID[1:]))
		f.logs[k] = append(f.logs[k], delivery{Prod: int(attrInt(n, "p")), Idx: idx, Seq: e.Seq, At: now})
		if ph := f.phase.Load(); ph >= 0 {
			cl.lat.add(ph, attrInt(n, "t"), now)
		}
		f.tr.End(tk, "core.handler", idx, 0)
		f.delivered.Add(1)
	}
}

// report generates the next vehicle report of producer p, due at t (ns
// since the epoch), and records which subscriptions it must reach.
func (f *fleet) report(p int, t int64) message.Notification {
	region, fl := f.rng.Intn(fleetRegions), f.rng.Intn(fleetFleets)
	speed := f.rng.Intn(fleetSpeeds)
	idx := f.nextIdx
	f.nextIdx++
	n := message.NewAttrs(
		message.Attr{Name: "fleet", Value: message.String(fmt.Sprintf("f%d", fl))},
		message.Attr{Name: "i", Value: message.Int(idx)},
		message.Attr{Name: "p", Value: message.Int(int64(p))},
		message.Attr{Name: "region", Value: message.String(fmt.Sprintf("r%d", region))},
		message.Attr{Name: "speed", Value: message.Int(int64(speed))},
		message.Attr{Name: "t", Value: message.Int(t)},
		message.Attr{Name: "vehicle", Value: message.String(fmt.Sprintf("v%d", f.rng.Intn(10000)))},
	)
	key := pkey{p, idx}
	for _, k := range f.byRegion[region] {
		s := f.subs[k]
		if (s.kind == 1 || s.fleet == fl) && s.lo <= speed && speed <= s.hi {
			f.expected[k] = append(f.expected[k], key)
			f.want++
		}
	}
	for _, k := range f.byFleet[fl] {
		s := f.subs[k]
		if s.lo <= speed && speed <= s.hi {
			f.expected[k] = append(f.expected[k], key)
			f.want++
		}
	}
	if len(f.sample) < 512 {
		f.sample = append(f.sample, n)
	}
	return n
}

func (f *fleet) publish(p int, n message.Notification) {
	tk := f.tr.Begin()
	err := f.prods[p].Publish(n)
	f.tr.End(tk, "core.Publish", attrInt(n, "i"), 0)
	if err != nil {
		f.pubErrs.Add(1)
	}
	f.pubs.Add(1)
}

func (f *fleet) rounds(n, phase int, late *Hist) int64 {
	f.phase.Store(int32(phase))
	per := 2 * fleetRate
	gap := f.roundLen() / time.Duration(per)
	start := time.Now().Add(5 * time.Millisecond)
	base := int64(start.Sub(f.epoch))
	due := make([]time.Duration, 0, n*per)
	notifs := make([]message.Notification, 0, n*per)
	for r := 0; r < n; r++ {
		for j := 0; j < per; j++ {
			d := time.Duration(r)*f.roundLen() + time.Duration(j)*gap
			due = append(due, d)
			notifs = append(notifs, f.report(j%2, base+int64(d)))
		}
	}
	runSchedule(start, due, func(i int) { f.publish(i%2, notifs[i]) }, late, true)
	return base
}

func (f *fleet) drain() error {
	err := waitCount(f.delivered.Load, f.want, 30*time.Second)
	f.phase.Store(-1)
	return err
}

func (f *fleet) burst(ready func()) (int64, time.Duration, error) {
	before := f.want
	notifs := make([]message.Notification, fleetBurstReports)
	for i := range notifs {
		notifs[i] = f.report(i%2, 0)
	}
	ready()
	t0 := time.Now()
	for i, n := range notifs {
		f.publish(i%2, n)
	}
	err := waitCount(f.delivered.Load, f.want, 30*time.Second)
	return f.want - before, time.Since(t0), err
}

func (f *fleet) latency(phase int) []latSample {
	var out []latSample
	for _, cl := range f.clients {
		cl.c.Flush()
		out = append(out, cl.lat[phase]...)
	}
	return out
}

func (f *fleet) brokerStats() []broker.Stats { return networkStats(f.nw, f.ids) }

func (f *fleet) counts() linkCounts { return counterCounts(f.nw.Counter()) }

func (f *fleet) finish(out *outcome) {
	for _, cl := range f.clients {
		cl.c.Flush()
	}
	for k := range f.subs {
		checkExact("fleet s"+strconv.Itoa(k), f.expected[k], f.logs[k], &out.v)
	}
	if n := f.pubErrs.Load(); n > 0 {
		out.v.add("fleet: %d Publish calls failed", n)
	}
	out.attempted = f.pubs.Load()
}

func (f *fleet) layers(tr *Tracer, m map[string]float64, before, after snapshot) {
	busiest, most := 0, -1
	for i, s := range after.brokers {
		if s.SubEntries > most {
			busiest, most = i, s.SubEntries
		}
	}
	b, err := f.nw.Broker(f.ids[busiest])
	if err == nil {
		m["routing.match_ns"], m["routing.matched_per_pub"] = replayMatch(tr, b.SubEntries(), f.sample)
	}
	fs := make([]filter.Filter, 0, 500)
	for _, s := range f.subs[:500] {
		fs = append(fs, s.filter())
	}
	m["filter.match_ns"] = replayFilterMatches(tr, fs, f.sample[:16])
	m["routing.add_us"] = replayTableAdd(tr, fs)
	m["routing.forward_add_us"] = replayForwardAdd(tr, fs)
	m["message.decode_ns"], m["wire.encode_ns"], m["wire.decode_ns"] = replayCodec(tr, f.sample)
}

// networkStats snapshots the brokers of an in-process overlay in ID
// order.
func networkStats(nw *core.Network, ids []wire.BrokerID) []broker.Stats {
	out := make([]broker.Stats, 0, len(ids))
	for _, id := range ids {
		b, err := nw.Broker(id)
		if err != nil {
			continue
		}
		out = append(out, b.Stats())
	}
	return out
}

func counterCounts(c *metrics.Counter) linkCounts {
	return linkCounts{
		notif:   c.Get(metrics.CategoryNotification),
		admin:   c.Get(metrics.CategoryAdmin),
		control: c.Get(metrics.CategoryControl),
	}
}

// attrInt reads an integer attribute the generator put in.
func attrInt(n message.Notification, name string) int64 {
	v, _ := n.Get(name)
	return v.IntVal()
}
