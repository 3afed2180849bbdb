package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/location"
	"repro/internal/locfilter"
	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/wire"
)

// city: city mobility. A tree of cell brokers on zero-delay links; every
// leaf is a cell and carries a cityBallast-entry ballast table. Roamers
// each hold a mobile subscription to their lane of the tick stream and a
// personal probe subscription, and relocate between cells on a fixed
// schedule while ticks race the handoffs. Walkers hold $myloc
// subscriptions on a grid and each take one step per round while park
// events are published for random grid cells.
const (
	cityDepth     = 2 // 7 brokers, 4 leaf cells
	cityBallast   = 100_000
	cityRoamers   = 32
	cityWalkers   = 32
	cityGridSide  = 8
	cityLaneTicks = 30  // regular ticks per lane per round
	cityRaceGap   = 300 // µs between a move and its second racing tick
	cityParks     = 160 // park events per round
	cityMaxCost   = 3   // walkers want cost < cityMaxCost; costs run 0..3
	// cityOpsPerRound is the operations of one round's schedule: ticks
	// (regular plus two racing each move), park events, moves with their
	// probes, and steps with their park probes.
	cityOpsPerRound = cityRoamers*cityLaneTicks + 2*cityRoamers + cityParks + 2*cityRoamers + 2*cityWalkers
	cityBurstTicks  = 80_000 // ticks per capacity burst
	cityBursts      = 7
	// faultATrials is how many times a run reproduces fault A (see
	// faultTrials); each duplicate it yields is one failed operation.
	faultATrials = 16
)

// cityOp is one scheduled call of the mover goroutine.
type cityOp struct {
	due    time.Duration
	walker bool
	who    int
	cell   wire.BrokerID     // roamer target
	loc    location.Location // walker target
	probe  int64             // index of the probe (tick probe or park event)
}

// cityPub is one scheduled publish of the publisher goroutine.
type cityPub struct {
	due  time.Duration
	park bool
	idx  int64 // tick index or park-event index
	lane int
	cell location.Location
	cost int
}

type roamer struct {
	c       *core.Client
	ticks   []delivery
	probes  []delivery
	lat     latLog
	handoff *Hist
}

type walker struct {
	c       *core.Client
	got     []delivery
	lat     latLog
	locmove *Hist
	stays   []stay
}

type city struct {
	rng       *rand.Rand
	ballast   []filter.Filter
	grid      *location.Graph
	cells     []wire.BrokerID // leaf brokers, filled per build (same IDs every build)
	roamStart []int
	walkStart []location.Location
	walkHome  []int
	roamAt    []int               // generator's view of each roamer's cell
	walkAt    []location.Location // generator's view of each walker's location

	epoch     time.Time
	tr        *Tracer
	nw        *core.Network
	ids       []wire.BrokerID
	ticker    *core.Client
	parker    *core.Client
	prober    *core.Client
	parkProbe *core.Client
	roamers   []*roamer
	walkers   []*walker

	lanes        [][]int64 // published tick indices per lane
	probesFor    [][]int64 // published probe indices per roamer
	events       []parkEvent
	nextTick     int64
	nextProbe    int64
	want         atomic.Int64 // tick deliveries expected so far (bursts)
	ticksIn      atomic.Int64 // tick deliveries so far
	pubs         atomic.Int64
	ops          int64
	tracedRounds int
	phase        atomic.Int32
	callErrs     atomic.Int64
	sample       []message.Notification
	roamerSubs   []routing.Entry
}

func newCity(seed int64) *city {
	c := &city{rng: rand.New(rand.NewSource(seed)), grid: location.Grid(cityGridSide, cityGridSide)}
	for k := 0; k < cityBallast; k++ {
		if k%2 == 0 {
			c.ballast = append(c.ballast, filter.MustNew(filter.EQ("topic", message.String("bg"+strconv.Itoa(c.rng.Intn(1<<30))))))
			continue
		}
		lo := int64(c.rng.Intn(1 << 30))
		c.ballast = append(c.ballast, filter.MustNew(filter.Range("load", message.Int(lo), message.Int(lo+9))))
	}
	cells := 1 << cityDepth
	for i := 0; i < cityRoamers; i++ {
		c.roamStart = append(c.roamStart, c.rng.Intn(cells))
	}
	locs := c.grid.Locations()
	for j := 0; j < cityWalkers; j++ {
		c.walkStart = append(c.walkStart, locs[c.rng.Intn(len(locs))])
		c.walkHome = append(c.walkHome, j%cells)
	}
	c.roamAt = append([]int(nil), c.roamStart...)
	c.walkAt = append([]location.Location(nil), c.walkStart...)
	return c
}

func (c *city) setupReps() int          { return 3 }
func (c *city) roundLen() time.Duration { return time.Second }
func (c *city) bursts() int             { return cityBursts }
func (c *city) published() int64        { return c.pubs.Load() }

var (
	tickAdv  = filter.MustParse(`type = "tick"`)
	probeAdv = filter.MustParse(`type = "probe"`)
	parkAdv  = filter.MustParse(`service = "parking"`)
	// walkerBase is the walkers' location-dependent subscription.
	walkerBase = filter.MustNew(
		filter.EQ("service", message.String("parking")),
		filter.EQ("location", message.String("$myloc")),
		filter.LT("cost", message.Int(cityMaxCost)),
	)
)

func tickFilter(lane int) filter.Filter {
	return filter.MustNew(filter.EQ("type", message.String("tick")), filter.EQ("lane", message.Int(int64(lane))))
}

func probeFilter(r int) filter.Filter {
	return filter.MustNew(filter.EQ("type", message.String("probe")), filter.EQ("to", message.Int(int64(r))))
}

func (c *city) build(tr *Tracer) error {
	c.epoch = time.Now()
	c.tr = tr
	c.nw = core.NewNetwork()
	ids, err := c.nw.BuildBinaryTree("c", cityDepth, 0)
	if err != nil {
		return err
	}
	c.ids = ids
	c.cells = core.TreeLeaves(ids, cityDepth)
	if err := c.nw.RegisterGraph("grid", c.grid); err != nil {
		return err
	}
	producer := func(name string, adv filter.Filter) (*core.Client, error) {
		p, err := c.nw.NewClient(wire.ClientID(name), ids[0], nil)
		if err != nil {
			return nil, err
		}
		return p, p.Advertise("adv", adv)
	}
	if c.ticker, err = producer("ticker", tickAdv); err != nil {
		return err
	}
	if c.prober, err = producer("prober", probeAdv); err != nil {
		return err
	}
	if c.parker, err = producer("parker", parkAdv); err != nil {
		return err
	}
	if c.parkProbe, err = producer("parkprobe", parkAdv); err != nil {
		return err
	}
	c.nw.Settle()

	// Ballast: aggregate subscriptions injected at each cell as if its
	// parent had forwarded them. A leaf has no other neighbor, so they
	// propagate nowhere, and no workload notification carries their
	// attributes.
	for i, cell := range c.cells {
		b, err := c.nw.Broker(cell)
		if err != nil {
			return err
		}
		parent := wire.BrokerHop(ids[(len(ids)-len(c.cells)+i-1)/2])
		const chunk = 4096
		msgs := make([]wire.Message, 0, chunk)
		for _, f := range c.ballast {
			msgs = append(msgs, wire.NewSubscribe(wire.Subscription{Filter: f}))
			if len(msgs) == chunk {
				b.ReceiveBurst(parent, msgs)
				b.Barrier()
				msgs = make([]wire.Message, 0, chunk)
			}
		}
		b.ReceiveBurst(parent, msgs)
		b.Barrier()
	}

	c.lanes = make([][]int64, cityRoamers)
	c.probesFor = make([][]int64, cityRoamers)
	c.events = nil
	c.nextTick, c.nextProbe, c.ops, c.tracedRounds = 0, 0, 0, 0
	c.want.Store(0)
	c.ticksIn.Store(0)
	c.pubs.Store(0)
	c.phase.Store(-1)
	c.roamers = make([]*roamer, cityRoamers)
	c.roamerSubs = nil
	for i := range c.roamers {
		r := &roamer{handoff: newHist()}
		cl, err := c.nw.NewClient(wire.ClientID(fmt.Sprintf("r%d", i)), c.cells[c.roamStart[i]], c.roamerHandler(i, r))
		if err != nil {
			return err
		}
		r.c = cl
		c.roamers[i] = r
		for _, spec := range []core.SubSpec{
			{ID: "tick", Filter: tickFilter(i), Mobile: true},
			{ID: "probe", Filter: probeFilter(i), Mobile: true},
		} {
			tk := tr.Begin()
			err := cl.Subscribe(spec)
			tr.End(tk, "core.Subscribe", int64(i), 0)
			if err != nil {
				return err
			}
			c.roamerSubs = append(c.roamerSubs, routing.Entry{Filter: spec.Filter, Hop: wire.ClientHop(cl.ID()), Client: cl.ID(), SubID: spec.ID})
		}
	}
	c.walkers = make([]*walker, cityWalkers)
	for j := range c.walkers {
		wk := &walker{locmove: newHist()}
		cl, err := c.nw.NewClient(wire.ClientID(fmt.Sprintf("w%d", j)), c.cells[c.walkHome[j]], c.walkerHandler(j, wk))
		if err != nil {
			return err
		}
		wk.c = cl
		c.walkers[j] = wk
		from := since(c.epoch)
		tk := tr.Begin()
		err = cl.Subscribe(core.SubSpec{ID: "park", Filter: walkerBase, Loc: &core.LocSpec{
			Graph: "grid", Attr: "location", Start: c.walkStart[j], Delta: time.Second,
		}})
		tr.End(tk, "core.Subscribe", int64(j), 0)
		if err != nil {
			return err
		}
		wk.stays = []stay{{Cell: string(c.walkStart[j]), From: from, Ret: since(c.epoch), Until: forever, UntilRet: forever}}
	}
	tk := tr.Begin()
	c.nw.Settle()
	tr.End(tk, "core.Settle", -1, 0)
	return nil
}

func (c *city) close() {
	if c.nw != nil {
		c.nw.Close()
		c.nw = nil
	}
}

func (c *city) roamerHandler(i int, r *roamer) core.Handler {
	return func(e core.Event) {
		now := since(c.epoch)
		tk := c.tr.Begin()
		n := e.Notification
		idx := attrInt(n, "i")
		d := delivery{Idx: idx, Seq: e.Seq, Replayed: e.Replayed, At: now}
		if e.SubID == "probe" {
			r.probes = append(r.probes, d)
			r.handoff.Record(now - attrInt(n, "t"))
		} else {
			r.ticks = append(r.ticks, d)
			if ph := c.phase.Load(); ph >= 0 {
				r.lat.add(ph, attrInt(n, "t"), now)
			}
			c.ticksIn.Add(1)
		}
		c.tr.End(tk, "core.handler", idx, 0)
	}
}

func (c *city) walkerHandler(j int, w *walker) core.Handler {
	return func(e core.Event) {
		now := since(c.epoch)
		tk := c.tr.Begin()
		n := e.Notification
		idx := attrInt(n, "i")
		w.got = append(w.got, delivery{Idx: idx, Seq: e.Seq, At: now})
		switch mover, probe := n.Get("w"); {
		case !probe:
			if ph := c.phase.Load(); ph >= 0 {
				w.lat.add(ph, attrInt(n, "t"), now)
			}
		case mover.IntVal() == int64(j):
			w.locmove.Record(now - attrInt(n, "t"))
		}
		c.tr.End(tk, "core.handler", idx, 0)
	}
}

func (c *city) tick(lane int, t int64) message.Notification {
	idx := c.nextTick
	c.nextTick++
	c.lanes[lane] = append(c.lanes[lane], idx)
	c.want.Add(1)
	n := message.NewAttrs(
		message.Attr{Name: "i", Value: message.Int(idx)},
		message.Attr{Name: "lane", Value: message.Int(int64(lane))},
		message.Attr{Name: "t", Value: message.Int(t)},
		message.Attr{Name: "type", Value: message.String("tick")},
	)
	if len(c.sample) < 256 {
		c.sample = append(c.sample, n)
	}
	return n
}

func parkNote(idx int64, cell location.Location, cost int, t int64, mover int) message.Notification {
	attrs := []message.Attr{
		{Name: "cost", Value: message.Int(int64(cost))},
		{Name: "i", Value: message.Int(idx)},
		{Name: "location", Value: message.String(string(cell))},
		{Name: "service", Value: message.String("parking")},
		{Name: "t", Value: message.Int(t)},
	}
	if mover >= 0 {
		attrs = append(attrs, message.Attr{Name: "w", Value: message.Int(int64(mover))})
	}
	return message.NewAttrs(attrs...)
}

// schedule generates rounds [first, first+n): the publisher's ticks and
// park events and the mover's moves and steps, with due times relative
// to the phase start.
func (c *city) schedule(n int) ([]cityPub, []cityOp) {
	var pubs []cityPub
	var ops []cityOp
	cells := len(c.cells)
	locs := c.grid.Locations()
	for r := 0; r < n; r++ {
		base := time.Duration(r) * c.roundLen()
		var round []cityOp
		// Each roamer and each walker moves once per round at its own
		// fixed offset, so a roamer's moves are a whole round apart: far
		// beyond a handoff's duration (fault B needs back-to-back moves).
		slot := c.roundLen() / (cityRoamers + cityWalkers)
		for i := 0; i < cityRoamers; i++ {
			to := (c.roamAt[i] + 1 + c.rng.Intn(cells-1)) % cells
			c.roamAt[i] = to
			due := base + time.Duration(2*i)*slot + slot/4
			round = append(round, cityOp{due: due, who: i, cell: c.cells[to]})
			pubs = append(pubs,
				cityPub{due: due, lane: i},
				cityPub{due: due + cityRaceGap*time.Microsecond, lane: i})
		}
		for j := 0; j < cityWalkers; j++ {
			nb := c.grid.Neighbors(c.walkAt[j])
			to := nb[c.rng.Intn(len(nb))]
			c.walkAt[j] = to
			due := base + time.Duration(2*j+1)*slot + slot/4
			round = append(round, cityOp{due: due, walker: true, who: j, loc: to})
		}
		sort.SliceStable(round, func(a, b int) bool { return round[a].due < round[b].due })
		ops = append(ops, round...)
		regular := cityRoamers * cityLaneTicks
		perm := c.rng.Perm(cityRoamers)
		for k := 0; k < regular; k++ {
			pubs = append(pubs, cityPub{due: base + time.Duration(k)*c.roundLen()/time.Duration(regular), lane: perm[k%cityRoamers]})
		}
		for k := 0; k < cityParks; k++ {
			due := base + (time.Duration(2*k+1)*c.roundLen())/time.Duration(2*cityParks)
			pubs = append(pubs, cityPub{due: due, park: true, cell: locs[c.rng.Intn(len(locs))], cost: c.rng.Intn(cityMaxCost + 1)})
		}
	}
	sort.SliceStable(pubs, func(a, b int) bool { return pubs[a].due < pubs[b].due })
	// Indices follow publish order: per lane, per producer.
	for i := range ops {
		if ops[i].walker {
			ops[i].probe = int64(len(c.events))
			c.events = append(c.events, parkEvent{Cell: string(ops[i].loc), Eligible: true})
		} else {
			ops[i].probe = c.nextProbe
			c.probesFor[ops[i].who] = append(c.probesFor[ops[i].who], c.nextProbe)
			c.nextProbe++
		}
	}
	for i := range pubs {
		if pubs[i].park {
			pubs[i].idx = int64(len(c.events))
			c.events = append(c.events, parkEvent{Cell: string(pubs[i].cell), Eligible: pubs[i].cost < cityMaxCost})
		}
	}
	c.ops += int64(n * cityOpsPerRound)
	return pubs, ops
}

func (c *city) rounds(n, phase int, late *Hist) int64 {
	c.phase.Store(int32(phase))
	if phase == 1 {
		c.tracedRounds += n
	}
	pubs, ops := c.schedule(n)
	start := time.Now().Add(5 * time.Millisecond)
	base := int64(start.Sub(c.epoch))
	notifs := make([]message.Notification, len(pubs))
	dues := make([]time.Duration, len(pubs))
	for i, p := range pubs {
		dues[i] = p.due
		if p.park {
			notifs[i] = parkNote(p.idx, p.cell, p.cost, base+int64(p.due), -1)
		} else {
			notifs[i] = c.tick(p.lane, base+int64(p.due))
			pubs[i].idx = attrInt(notifs[i], "i")
		}
	}
	moverDues := make([]time.Duration, len(ops))
	for i, op := range ops {
		moverDues[i] = op.due
	}
	moverLate := newHist()
	done := make(chan struct{})
	go func() {
		defer close(done)
		runSchedule(start, moverDues, func(i int) { c.move(ops[i]) }, moverLate, true)
	}()
	runSchedule(start, dues, func(i int) {
		p := pubs[i]
		if p.park {
			e := &c.events[p.idx]
			e.PubStart = since(c.epoch)
			c.publish(c.parker, notifs[i], p.idx)
			e.PubEnd = since(c.epoch)
			return
		}
		c.publish(c.ticker, notifs[i], p.idx)
	}, late, true)
	<-done
	late.Merge(moverLate)
	return base
}

func (c *city) publish(p *core.Client, n message.Notification, idx int64) {
	tk := c.tr.Begin()
	err := p.Publish(n)
	c.tr.End(tk, "core.Publish", idx, 0)
	if err != nil {
		c.callErrs.Add(1)
	}
	c.pubs.Add(1)
}

// move runs one mover operation and publishes its probe as soon as the
// call returns.
func (c *city) move(op cityOp) {
	t0 := since(c.epoch)
	tk := c.tr.Begin()
	if !op.walker {
		err := c.roamers[op.who].c.MoveTo(op.cell)
		c.tr.End(tk, "core.MoveTo", op.probe, 0)
		if err != nil {
			c.callErrs.Add(1)
		}
		n := message.NewAttrs(
			message.Attr{Name: "i", Value: message.Int(op.probe)},
			message.Attr{Name: "t", Value: message.Int(t0)},
			message.Attr{Name: "to", Value: message.Int(int64(op.who))},
			message.Attr{Name: "type", Value: message.String("probe")},
		)
		c.publish(c.prober, n, op.probe)
		return
	}
	w := c.walkers[op.who]
	err := w.c.SetLocation("park", op.loc)
	c.tr.End(tk, "core.SetLocation", op.probe, 0)
	ret := since(c.epoch)
	if err != nil {
		c.callErrs.Add(1)
	}
	last := &w.stays[len(w.stays)-1]
	last.Until, last.UntilRet = t0, ret
	w.stays = append(w.stays, stay{Cell: string(op.loc), From: t0, Ret: ret, Until: forever, UntilRet: forever})
	e := &c.events[op.probe]
	e.PubStart = since(c.epoch)
	c.publish(c.parkProbe, parkNote(op.probe, op.loc, 0, t0, op.who), op.probe)
	e.PubEnd = since(c.epoch)
}

func (c *city) drain() error {
	err := waitCount(c.ticksIn.Load, c.want.Load(), 30*time.Second)
	c.nw.Settle()
	for _, r := range c.roamers {
		r.c.Flush()
	}
	for _, w := range c.walkers {
		w.c.Flush()
	}
	c.phase.Store(-1)
	return err
}

// burst publishes cityBurstTicks ticks, round-robin over the lanes, with
// no moves; every tick reaches exactly one roamer.
func (c *city) burst(ready func()) (int64, time.Duration, error) {
	n := cityBurstTicks
	notifs := make([]message.Notification, n)
	for i := range notifs {
		notifs[i] = c.tick(i%cityRoamers, 0)
	}
	c.ops += int64(n)
	ready()
	before := c.ticksIn.Load()
	t0 := time.Now()
	for _, m := range notifs {
		c.publish(c.ticker, m, attrInt(m, "i"))
	}
	err := waitCount(c.ticksIn.Load, c.want.Load(), 30*time.Second)
	return c.ticksIn.Load() - before, time.Since(t0), err
}

func (c *city) latency(phase int) []latSample {
	var out []latSample
	for _, r := range c.roamers {
		r.c.Flush()
		out = append(out, r.lat[phase]...)
	}
	for _, w := range c.walkers {
		w.c.Flush()
		out = append(out, w.lat[phase]...)
	}
	return out
}

func (c *city) brokerStats() []broker.Stats { return networkStats(c.nw, c.ids) }

func (c *city) counts() linkCounts { return counterCounts(c.nw.Counter()) }

func (c *city) finish(out *outcome) {
	c.nw.Settle()
	handoff, locmove := newHist(), newHist()
	var dups int64
	for i, r := range c.roamers {
		r.c.Flush()
		dups += int64(checkRoamer(fmt.Sprintf("city roamer %d ticks", i), c.lanes[i], r.ticks, &out.v))
		checkOnce(fmt.Sprintf("city roamer %d probes", i), c.probesFor[i], r.probes, &out.v)
		handoff.Merge(r.handoff)
	}
	for j, w := range c.walkers {
		w.c.Flush()
		checkWalker(fmt.Sprintf("city walker %d", j), w.stays, c.events, w.got, &out.v)
		locmove.Merge(w.locmove)
	}
	if n := c.callErrs.Load(); n > 0 {
		out.v.add("city: %d calls failed", n)
	}
	out.e2e["handoff_p50_us"] = float64(handoff.Quantile(0.5)) / 1e3
	out.e2e["handoff_p99_us"] = float64(handoff.Quantile(0.99)) / 1e3
	out.e2e["locmove_p50_us"] = float64(locmove.Quantile(0.5)) / 1e3
	out.e2e["locmove_p99_us"] = float64(locmove.Quantile(0.99)) / 1e3

	trialDups, err := faultTrials(faultATrials, &out.v)
	if err != nil {
		out.v.add("city: fault trials: %v", err)
	}
	out.attempted = c.ops + faultATrials
	out.failed = dups + int64(trialDups)
}

func (c *city) layers(tr *Tracer, m map[string]float64, before, after snapshot) {
	var completed, replayItems, replayBatches float64
	for i, a := range after.brokers {
		b := before.brokers[i]
		completed += float64(a.RelocationsCompleted - b.RelocationsCompleted)
		replayItems += a.ReplayMeanItems*float64(a.ReplayBatches) - b.ReplayMeanItems*float64(b.ReplayBatches)
		replayBatches += float64(a.ReplayBatches - b.ReplayBatches)
	}
	// Every round moves each roamer and each walker once; the stats
	// deltas cover the traced rounds (and the bursts, which move nobody).
	tracedMoves := float64(c.tracedRounds * cityRoamers)
	tracedSteps := float64(c.tracedRounds * cityWalkers)
	m["broker.relocations_completed"] = completed
	if replayBatches > 0 {
		m["broker.replay_mean_items"] = replayItems / replayBatches
	}
	locUpdates := float64(processedSum(after.brokers, wire.TypeLocUpdate) - processedSum(before.brokers, wire.TypeLocUpdate))
	m["broker.locupdates_per_move"] = locUpdates / tracedSteps
	m["transport.control_msgs_per_handoff"] = float64(after.links.control-before.links.control) / tracedMoves
	// Relocation re-subscriptions are admin traffic too; take them out to
	// leave what the logical moves sent.
	reloc := float64(processedSum(after.brokers, wire.TypeSubscribe, wire.TypeUnsubscribe) -
		processedSum(before.brokers, wire.TypeSubscribe, wire.TypeUnsubscribe))
	m["transport.admin_msgs_per_move"] = (float64(after.links.admin-before.links.admin) - reloc) / tracedSteps

	b, err := c.nw.Broker(c.cells[0])
	if err == nil {
		m["routing.match_ns"], m["routing.matched_per_pub"] = replayMatch(tr, b.SubEntries(), c.sample)
	}
	m["routing.client_entries_us"] = replayClientEntries(tr, c.ballast, c.roamerSubs)
	fs := make([]filter.Filter, 0, len(c.roamerSubs)+cityWalkers)
	for _, e := range c.roamerSubs {
		fs = append(fs, e.Filter)
	}
	var exact []filter.Filter
	for _, x := range c.grid.Locations() {
		for _, q := range []int{0, 1} {
			f, err := locfilter.Instantiate(walkerBase, "location", c.grid, x, q)
			if err == nil {
				exact = append(exact, f)
			}
		}
	}
	fs = append(fs, exact...)
	m["filter.match_ns"] = replayFilterMatches(tr, fs, c.sample)
	m["routing.add_us"] = replayTableAdd(tr, c.ballast[:2000])
	m["routing.forward_add_us"] = replayForwardAdd(tr, c.ballast[:500])
	m["message.decode_ns"], m["wire.encode_ns"], m["wire.decode_ns"] = replayCodec(tr, c.sample)
	m["locfilter.instantiate_ns"] = replayInstantiate(tr, walkerBase, "location", c.grid, c.grid.Locations(), []int{0, 1, 2})
}
