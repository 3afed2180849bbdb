package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tcp-transit: three brokers in this process linked over loopback TCP
// the way rebeca-broker links them (DialTCP / AcceptTCP / AddLink), with
// a publisher and a subscriber attached as remote clients over two
// connections (DialTCPClient / AttachRemoteClient). The subscription
// table is small; frame encode and decode, pass-through at the transit
// broker and the TCP send ring carry the cost.
const (
	tcpRate      = 1500 // notifications per second
	tcpLargeEach = 4    // every 4th notification carries a 1 KiB payload
	tcpPayload   = 1000 // payload bytes of a large notification
	tcpSubs      = 8
	tcpBurst     = 50000
	tcpBursts    = 21
)

// tcpSub is one generated subscription: an optional kind constraint
// ("s" small, "l" large) and a range over v.
type tcpSub struct {
	kind   string
	lo, hi int
}

func (s tcpSub) filter() filter.Filter {
	cs := []filter.Constraint{filter.Range("v", message.Int(int64(s.lo)), message.Int(int64(s.hi)))}
	if s.kind != "" {
		cs = append(cs, filter.EQ("k", message.String(s.kind)))
	}
	return filter.MustNew(cs...)
}

type tcpNode struct {
	id     wire.BrokerID
	b      *broker.Broker
	ln     net.Listener
	accept sync.WaitGroup
}

type tcpTransit struct {
	rng      *rand.Rand
	subs     []tcpSub
	payloads []string
	sample   [2][]message.Notification // small, large

	epoch    time.Time
	tr       *Tracer
	nodes    []*tcpNode
	attached chan wire.Hop // peers the accept loops have attached or linked
	mu       sync.Mutex    // guards clientLinks
	clients  []*transport.TCPLink
	pub, sub *transport.TCPLink
	synced   chan struct{}
	syncOnce sync.Once
	bytes    atomic.Int64

	// Subscriber state, written by the subscriber link's reader.
	logMu     sync.Mutex
	logs      [][]delivery
	lat       latLog
	sums      []uint64 // digest of each generated notification, by index
	expected  [][]pkey
	want      int64
	delivered atomic.Int64
	pubs      atomic.Int64
	nextIdx   int64
	phase     atomic.Int32
	pubErrs   atomic.Int64
}

func newTCPTransit(seed int64) *tcpTransit {
	w := &tcpTransit{rng: rand.New(rand.NewSource(seed))}
	// The table has the same shape for every seed, so the fan-out per
	// notification does not depend on it: subscription k covers 24
	// values starting at 12k, shifted by a seeded offset, and every
	// third one is restricted to small or large notifications.
	kinds := []string{"", "s", "l"}
	shift := w.rng.Intn(12)
	for i := 0; i < tcpSubs; i++ {
		lo := (12*i + shift) % 100
		w.subs = append(w.subs, tcpSub{kind: kinds[i%3], lo: lo, hi: lo + 23})
	}
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := 0; i < 64; i++ {
		b := make([]byte, tcpPayload)
		for j := range b {
			b[j] = letters[w.rng.Intn(len(letters))]
		}
		w.payloads = append(w.payloads, string(b))
	}
	return w
}

func (w *tcpTransit) setupReps() int          { return 5 }
func (w *tcpTransit) roundLen() time.Duration { return time.Second }
func (w *tcpTransit) bursts() int             { return tcpBursts }
func (w *tcpTransit) published() int64        { return w.pubs.Load() }

// countConn counts the bytes crossing an accepted connection in both
// directions; every connection of the overlay has exactly one accepted
// end, so the sum covers all of them once.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (w *tcpTransit) build(tr *Tracer) error {
	w.epoch = time.Now()
	w.tr = tr
	w.attached = make(chan wire.Hop, 8) // at most 4 accepts per build
	w.synced = make(chan struct{})
	w.syncOnce = sync.Once{}
	w.logs = make([][]delivery, len(w.subs))
	w.expected = make([][]pkey, len(w.subs))
	w.lat = latLog{}
	w.sums = nil
	w.want, w.nextIdx = 0, 0
	w.delivered.Store(0)
	w.pubs.Store(0)
	w.phase.Store(-1)
	w.nodes = nil
	for i := 0; i < 3; i++ {
		id := wire.BrokerID(fmt.Sprintf("t%d", i))
		n := &tcpNode{id: id, b: broker.New(id, broker.Options{Strategy: routing.Covering})}
		n.b.Start()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			n.b.Close()
			return err
		}
		n.ln = ln
		w.nodes = append(w.nodes, n)
		n.accept.Add(1)
		go w.acceptLoop(n)
	}
	for i := 0; i+1 < len(w.nodes); i++ {
		a, b := w.nodes[i], w.nodes[i+1]
		l, err := transport.DialTCP(b.ln.Addr().String(), a.id, a.b)
		if err != nil {
			return err
		}
		if err := a.b.AddLink(b.id, l); err != nil {
			return err
		}
		if err := w.awaitAttach(wire.BrokerHop(a.id)); err != nil {
			return err
		}
	}
	var err error
	w.pub, err = transport.DialTCPClient(w.nodes[0].ln.Addr().String(), "pub", transport.ReceiverFunc(func(transport.Inbound) {}))
	if err != nil {
		return err
	}
	if err := w.awaitAttach(wire.ClientHop("pub")); err != nil {
		return err
	}
	w.sub, err = transport.DialTCPClient(w.nodes[2].ln.Addr().String(), "sub", transport.ReceiverFunc(w.receive))
	if err != nil {
		return err
	}
	if err := w.awaitAttach(wire.ClientHop("sub")); err != nil {
		return err
	}
	for k, s := range w.subs {
		tk := tr.Begin()
		err := w.sub.Send(wire.NewSubscribe(wire.Subscription{Filter: s.filter(), Client: "sub", ID: wire.SubID("s" + strconv.Itoa(k))}))
		tr.End(tk, "transport.Send.subscribe", int64(k), 0)
		if err != nil {
			return err
		}
	}
	// The sync subscription goes last: once a sync notification is
	// delivered, every earlier subscription has reached the publisher's
	// broker over the same FIFO links.
	syncSub := filter.MustNew(filter.EQ("k", message.String("sync")))
	if err := w.sub.Send(wire.NewSubscribe(wire.Subscription{Filter: syncSub, Client: "sub", ID: "sync"})); err != nil {
		return err
	}
	syncMsg := wire.NewPublish(message.NewAttrs(message.Attr{Name: "k", Value: message.String("sync")}))
	tk := tr.Begin()
	defer tr.End(tk, "transport.settle", -1, 0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := w.pub.Send(syncMsg); err != nil {
			return err
		}
		select {
		case <-w.synced:
			return nil
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("tcp-transit: subscriptions did not propagate")
		}
	}
}

// acceptLoop is rebeca-broker's accept loop: peers become links, clients
// remote clients. Each attachment is reported on w.attached.
func (w *tcpTransit) acceptLoop(n *tcpNode) {
	defer n.accept.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		link, err := transport.AcceptTCP(countConn{Conn: conn, n: &w.bytes}, n.id, n.b)
		if err != nil {
			continue
		}
		peer := link.Peer()
		if peer.IsClient() {
			w.mu.Lock()
			w.clients = append(w.clients, link)
			w.mu.Unlock()
			if err := n.b.AttachRemoteClient(peer.Client, link); err != nil {
				_ = link.Close()
				continue
			}
		} else if err := n.b.AddLink(peer.Broker, link); err != nil {
			_ = link.Close()
			continue
		}
		w.attached <- peer
	}
}

func (w *tcpTransit) awaitAttach(want wire.Hop) error {
	select {
	case got := <-w.attached:
		if got != want {
			return fmt.Errorf("tcp-transit: attached %s, want %s", got, want)
		}
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("tcp-transit: %s did not attach", want)
	}
}

func (w *tcpTransit) close() {
	if w.pub != nil {
		_ = w.pub.Close()
		w.pub = nil
	}
	if w.sub != nil {
		_ = w.sub.Close()
		w.sub = nil
	}
	for _, n := range w.nodes {
		_ = n.ln.Close()
		n.accept.Wait()
	}
	w.mu.Lock()
	for _, l := range w.clients {
		_ = l.Close()
	}
	w.clients = nil
	w.mu.Unlock()
	for _, n := range w.nodes {
		n.b.Close()
	}
	w.nodes = nil
}

// receive is the subscriber's handler; it runs on the subscriber link's
// reader goroutine.
func (w *tcpTransit) receive(in transport.Inbound) {
	if in.Msg.Type != wire.TypeDeliver || in.Msg.Deliver == nil {
		return
	}
	now := since(w.epoch)
	d := in.Msg.Deliver
	if d.ID == "sync" {
		w.syncOnce.Do(func() { close(w.synced) })
		return
	}
	tk := w.tr.Begin()
	n := d.Item.Notif
	idx := attrInt(n, "i")
	k, _ := strconv.Atoi(string(d.ID[1:]))
	w.logMu.Lock()
	if k >= 0 && k < len(w.logs) {
		w.logs[k] = append(w.logs[k], delivery{Idx: idx, Seq: d.Item.Seq, At: now, Sum: digest(n)})
	}
	if ph := w.phase.Load(); ph >= 0 {
		w.lat.add(ph, attrInt(n, "t"), now)
	}
	w.logMu.Unlock()
	w.tr.End(tk, "transport.handler", idx, 0)
	w.delivered.Add(1)
}

// note generates notification idx due at t and records which
// subscriptions it must reach.
func (w *tcpTransit) note(t int64) message.Notification {
	idx := w.nextIdx
	w.nextIdx++
	v := w.rng.Intn(100)
	large := idx%tcpLargeEach == tcpLargeEach-1
	kind := "s"
	attrs := []message.Attr{
		{Name: "i", Value: message.Int(idx)},
		{Name: "t", Value: message.Int(t)},
		{Name: "v", Value: message.Int(int64(v))},
	}
	if large {
		kind = "l"
		attrs = append(attrs, message.Attr{Name: "p", Value: message.String(w.payloads[idx%int64(len(w.payloads))])})
	}
	attrs = append(attrs, message.Attr{Name: "k", Value: message.String(kind)})
	n := message.NewAttrs(attrs...)
	w.sums = append(w.sums, digest(n))
	for k, s := range w.subs {
		if (s.kind == "" || s.kind == kind) && s.lo <= v && v <= s.hi {
			w.expected[k] = append(w.expected[k], pkey{0, idx})
			w.want++
		}
	}
	size := 0
	if large {
		size = 1
	}
	if len(w.sample[size]) < 256 {
		w.sample[size] = append(w.sample[size], n)
	}
	return n
}

func (w *tcpTransit) publish(n message.Notification) {
	tk := w.tr.Begin()
	err := w.pub.Send(wire.NewPublish(n))
	w.tr.End(tk, "transport.Send", attrInt(n, "i"), 0)
	if err != nil {
		w.pubErrs.Add(1)
	}
	w.pubs.Add(1)
}

func (w *tcpTransit) rounds(n, phase int, late *Hist) int64 {
	w.phase.Store(int32(phase))
	gap := w.roundLen() / tcpRate
	start := time.Now().Add(5 * time.Millisecond)
	base := int64(start.Sub(w.epoch))
	due := make([]time.Duration, 0, n*tcpRate)
	notifs := make([]message.Notification, 0, n*tcpRate)
	for r := 0; r < n; r++ {
		for j := 0; j < tcpRate; j++ {
			d := time.Duration(r)*w.roundLen() + time.Duration(j)*gap
			due = append(due, d)
			notifs = append(notifs, w.note(base+int64(d)))
		}
	}
	runSchedule(start, due, func(i int) { w.publish(notifs[i]) }, late, false)
	return base
}

func (w *tcpTransit) drain() error {
	err := waitCount(w.delivered.Load, w.want, 30*time.Second)
	w.phase.Store(-1)
	return err
}

func (w *tcpTransit) burst(ready func()) (int64, time.Duration, error) {
	before := w.want
	notifs := make([]message.Notification, tcpBurst)
	for i := range notifs {
		notifs[i] = w.note(0)
	}
	ready()
	t0 := time.Now()
	for _, n := range notifs {
		w.publish(n)
	}
	err := waitCount(w.delivered.Load, w.want, 30*time.Second)
	return w.want - before, time.Since(t0), err
}

func (w *tcpTransit) latency(phase int) []latSample {
	w.logMu.Lock()
	defer w.logMu.Unlock()
	return append([]latSample(nil), w.lat[phase]...)
}

func (w *tcpTransit) brokerStats() []broker.Stats {
	out := make([]broker.Stats, 0, len(w.nodes))
	for _, n := range w.nodes {
		out = append(out, n.b.Stats())
	}
	return out
}

// counts derives link message counts from the brokers' inbound counters:
// every message that crosses a broker link is processed once by the
// receiving broker, and client-originated messages are taken out (the
// sync notifications of set-up stay in, so only differences are
// meaningful for notifications).
func (w *tcpTransit) counts() linkCounts {
	st := w.brokerStats()
	pubs := uint64(w.pubs.Load())
	clientAdmin := uint64(len(w.subs) + 1)
	return linkCounts{
		notif: processedSum(st, wire.TypePublish) - pubs,
		admin: processedSum(st, wire.TypeSubscribe, wire.TypeUnsubscribe, wire.TypeAdvertise,
			wire.TypeUnadvertise, wire.TypeFetch, wire.TypeLocUpdate) - clientAdmin,
		control: processedSum(st, wire.TypeFetch, wire.TypeReplay),
	}
}

func (w *tcpTransit) finish(out *outcome) {
	w.logMu.Lock()
	defer w.logMu.Unlock()
	for k := range w.subs {
		checkExact("tcp-transit s"+strconv.Itoa(k), w.expected[k], w.logs[k], &out.v)
	}
	for k, log := range w.logs {
		for _, d := range log {
			if d.Idx >= 0 && d.Idx < int64(len(w.sums)) && d.Sum != w.sums[d.Idx] {
				out.v.add("tcp-transit s%d: notification %d arrived changed", k, d.Idx)
			}
		}
	}
	if n := w.pubErrs.Load(); n > 0 {
		out.v.add("tcp-transit: %d sends failed", n)
	}
	out.attempted = w.pubs.Load()
}

func (w *tcpTransit) layers(tr *Tracer, m map[string]float64, before, after snapshot) {
	pubs := float64(after.pubs - before.pubs)
	m["wire.bytes_per_pub"] = float64(after.bytes-before.bytes) / pubs
	busiest, most := 0, -1
	for i, s := range after.brokers {
		if s.SubEntries > most {
			busiest, most = i, s.SubEntries
		}
	}
	mixed := append(append([]message.Notification(nil), w.sample[0]...), w.sample[1]...)
	m["routing.match_ns"], m["routing.matched_per_pub"] = replayMatch(tr, w.nodes[busiest].b.SubEntries(), mixed)
	fs := make([]filter.Filter, len(w.subs))
	for i, s := range w.subs {
		fs[i] = s.filter()
	}
	m["filter.match_ns"] = replayFilterMatches(tr, fs, mixed)
	m["routing.add_us"] = replayTableAdd(tr, fs)
	m["routing.forward_add_us"] = replayForwardAdd(tr, fs)
	// The mixed sample holds small and large notifications in the
	// workload's 3:1 proportion.
	mix := make([]message.Notification, 0, 256)
	for i := 0; len(mix) < 256 && i < len(w.sample[0]); i++ {
		mix = append(mix, w.sample[0][i])
		if i%3 == 2 && i/3 < len(w.sample[1]) {
			mix = append(mix, w.sample[1][i/3])
		}
	}
	m["message.decode_ns"], m["wire.encode_ns"], m["wire.decode_ns"] = replayCodec(tr, mix)
	m["message.decode_ns.small"], m["wire.encode_ns.small"], m["wire.decode_ns.small"] = replayCodec(tr, w.sample[0])
	m["message.decode_ns.1k"], m["wire.encode_ns.1k"], m["wire.decode_ns.1k"] = replayCodec(tr, w.sample[1])
}

// wireBytes is the number of bytes that crossed the overlay's sockets.
func (w *tcpTransit) wireBytes() int64 { return w.bytes.Load() }
