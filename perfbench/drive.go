package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/broker"
	"repro/internal/wire"
)

// workload is one set of generated inputs and the overlay they run on.
// A workload's inputs are generated once, from the seed, by its
// constructor; build may run several times (set-up is timed repeatedly)
// and starts from a fresh overlay and fresh delivery logs each time.
type workload interface {
	// build constructs the overlay, attaches the clients, loads the
	// tables and waits until the overlay has settled. Subscribe calls
	// are traced when tr is on.
	build(tr *Tracer) error
	close()
	// setupReps is how many times set-up is timed.
	setupReps() int
	// roundLen is the length of one round of the fixed-rate schedule.
	roundLen() time.Duration
	// rounds generates the next n rounds of the open-loop schedule, runs
	// them and records generator lateness into late. Deliveries during the
	// rounds record their latency under phase.
	// It returns the due time of the first round's start, in ns since
	// the workload's epoch (the time base of latSample.due).
	rounds(n, phase int, late *Hist) int64
	// drain waits until every expected delivery so far has arrived.
	drain() error
	// bursts is the fixed number of capacity bursts in a run.
	bursts() int
	// burst generates the next burst, calls ready, then publishes the
	// burst as fast as the publisher goroutine can and returns the
	// deliveries it caused and the time from the first publish to the
	// last delivery.
	burst(ready func()) (int64, time.Duration, error)
	// latency returns the delivery latencies recorded under phase.
	latency(phase int) []latSample
	// brokerStats snapshots every broker.
	brokerStats() []broker.Stats
	// counts returns the link-level message counts by kind (in-process
	// overlays count them on the links; over TCP they come from the
	// brokers' inbound counters).
	counts() linkCounts
	// published is the number of notifications published so far.
	published() int64
	// finish checks every delivery log and fills attempted, failed and
	// the workload's own end-to-end metrics.
	finish(out *outcome)
	// layers fills the workload's per-layer metrics: stats deltas
	// between before and after plus replayed layer calls.
	layers(tr *Tracer, m map[string]float64, before, after snapshot)
}

// linkCounts are message counts on broker-to-broker links.
type linkCounts struct {
	notif, admin, control uint64
}

// snapshot is everything measured at a phase boundary.
type snapshot struct {
	brokers []broker.Stats
	links   linkCounts
	pubs    int64
	rt      rtSnap
	encodes uint64
	bytes   int64 // bytes on the overlay's sockets, where there are any
}

type rtSnap struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
	pause uint64
}

func (a rtSnap) minus(b rtSnap) rtSnap {
	return rtSnap{cpu: a.cpu - b.cpu, alloc: a.alloc - b.alloc, gcs: a.gcs - b.gcs, pause: a.pause - b.pause}
}

func (a rtSnap) plus(b rtSnap) rtSnap {
	return rtSnap{cpu: a.cpu + b.cpu, alloc: a.alloc + b.alloc, gcs: a.gcs + b.gcs, pause: a.pause + b.pause}
}

func takeRT() rtSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
		pause: ms.PauseTotalNs,
	}
}

func takeSnapshot(w workload) snapshot {
	s := snapshot{
		brokers: w.brokerStats(),
		links:   w.counts(),
		pubs:    w.published(),
		rt:      takeRT(),
		encodes: wire.EncodeCalls(),
	}
	if bc, ok := w.(interface{ wireBytes() int64 }); ok {
		s.bytes = bc.wireBytes()
	}
	return s
}

// roundsFor is the number of fixed-rate rounds in a run: about 40% of
// the measured seconds, at least two. The rest of the time goes to the
// capacity bursts and the drains.
func roundsFor(seconds int, roundLen time.Duration) int {
	n := int(0.4 * float64(seconds) * float64(time.Second) / float64(roundLen))
	if n < 2 {
		n = 2
	}
	return n
}

// drive runs one workload: set-up (timed setupReps times), the fixed-rate
// rounds, the capacity bursts and the checks; in a traced run the second
// half of the rounds and the bursts are traced and the per-layer metrics
// are taken around them.
func drive(o options, w workload) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	epoch := time.Now()
	tr := newTracer(epoch)

	reps := w.setupReps()
	if o.trace {
		reps = 1
		tr.on.Store(true)
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := w.build(tr); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < reps-1 {
			w.close()
			runtime.GC()
		}
	}
	tr.on.Store(false)
	defer w.close()
	out.e2e["setup_s"] = median(setups)
	setupSnap := takeSnapshot(w)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.e2e["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	late := newHist()
	n := roundsFor(o.seconds, w.roundLen())
	untraced := n
	if o.trace {
		untraced = n / 2
	}
	base0 := w.rounds(untraced, 0, late)
	if err := w.drain(); err != nil {
		return nil, err
	}
	before := takeSnapshot(w)
	// used is the runtime's work during the traced rounds and the bursts;
	// the collection forced before each burst is left out.
	var used rtSnap
	var base1 int64
	if o.trace {
		tr.on.Store(true)
		base1 = w.rounds(n-untraced, 1, late)
		if err := w.drain(); err != nil {
			return nil, err
		}
		used = takeRT().minus(before.rt)
	}
	var rates []float64
	for k := 0; k < w.bursts(); k++ {
		// The heap is collected before the clock starts, so whether a GC
		// cycle lands inside a burst does not depend on the bursts before.
		var start rtSnap
		d, el, err := w.burst(func() {
			runtime.GC()
			start = takeRT()
		})
		if err != nil {
			return nil, err
		}
		used = used.plus(takeRT().minus(start))
		rates = append(rates, float64(d)/el.Seconds())
	}
	after := takeSnapshot(w)
	tr.on.Store(false)
	out.e2e["capacity_deliv_per_s"] = median(rates)

	st := roundStats(w.latency(0), base0, w.roundLen(), untraced)
	out.e2e["deliver_p50_us"] = st.p50 / 1e3
	out.e2e["deliver_p90_us"] = st.p90 / 1e3
	out.e2e["deliver_p99_us"] = st.p99 / 1e3
	out.layer["loadgen.lateness_p99_us"] = float64(late.Quantile(0.99)) / 1e3
	w.finish(out)

	if !o.trace {
		return out, nil
	}
	traced50 := roundStats(w.latency(1), base1, w.roundLen(), n-untraced).p50
	out.layer["trace.overhead_p50_us"] = traced50/1e3 - out.e2e["deliver_p50_us"]
	commonLayers(out.layer, setupSnap, before, after, used)
	out.layer["trace.span_ns"] = spanCost()
	tr.on.Store(true)
	w.layers(tr, out.layer, before, after)
	tr.on.Store(false)

	spans := tr.Spans()
	for name, metric := range map[string]string{
		"core.Publish":     "core.publish_call_us",
		"core.MoveTo":      "core.moveto_call_us",
		"core.SetLocation": "core.setlocation_call_us",
		"core.Subscribe":   "core.subscribe_call_us",
		"transport.Send":   "transport.send_call_us",
	} {
		if d, ok := medianSpan(spans, name); ok {
			out.layer[metric] = float64(d) / 1e3
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := spanPath(o)
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	out.spanFile = path
	back, err := readSpans(path)
	if err != nil {
		return nil, err
	}
	printSelfTimes(os.Stdout, selfTimes(back))
	fmt.Printf("tracing overhead: traced deliver_p50 %.2f us - untraced %.2f us = %.2f us; %.0f ns per span\n",
		traced50/1e3, out.e2e["deliver_p50_us"], out.layer["trace.overhead_p50_us"], out.layer["trace.span_ns"])
	return out, nil
}

// commonLayers fills the per-layer metrics every workload derives the
// same way from stats and runtime snapshots.
func commonLayers(m map[string]float64, setup, before, after snapshot, used rtSnap) {
	pubs := float64(after.pubs - before.pubs)
	if pubs < 1 {
		pubs = 1
	}
	m["runtime.cpu_s"] = used.cpu.Seconds()
	m["runtime.alloc_mb"] = float64(used.alloc) / (1 << 20)
	m["runtime.gc_cycles"] = float64(used.gcs)
	m["runtime.gc_pause_ms"] = float64(used.pause) / 1e6

	var processed, tasks, batches, flush float64
	var stalls uint64
	var high int
	for i, a := range after.brokers {
		b := before.brokers[i]
		for typ, n := range a.Processed {
			processed += float64(n - b.Processed[typ])
		}
		tasks += a.MeanBatchSize*float64(a.BatchesProcessed) - b.MeanBatchSize*float64(b.BatchesProcessed)
		batches += float64(a.BatchesProcessed - b.BatchesProcessed)
		flush += a.FlushMeanBurst
		stalls += a.LinkCreditStalls - b.LinkCreditStalls
		if a.LinkQueueHighWater > high {
			high = a.LinkQueueHighWater
		}
	}
	m["broker.processed_per_pub"] = processed / pubs
	if batches > 0 {
		m["broker.mean_batch"] = tasks / batches
	}
	m["broker.flush_mean_burst"] = flush / float64(len(after.brokers))
	m["broker.link_credit_stalls"] = float64(stalls)
	m["broker.link_queue_highwater"] = float64(high)

	var ctrl, entries, forwarded, covers float64
	for _, s := range setup.brokers {
		ctrl += float64(s.ControlSubsSent + s.ControlUnsubsSent)
		covers += float64(s.Forwarder.CoverChecks)
	}
	for _, s := range after.brokers {
		entries += float64(s.SubEntries)
		forwarded += float64(s.Forwarder.ForwardedFilters)
	}
	m["broker.ctrl_msgs_sent"] = ctrl
	m["filter.cover_checks"] = covers
	m["routing.table_entries"] = entries
	m["routing.forwarded_filters"] = forwarded
	m["transport.notif_msgs_per_pub"] = float64(after.links.notif-before.links.notif) / pubs
	m["transport.admin_msgs_setup"] = float64(setup.links.admin)
	m["wire.encodes_per_pub"] = float64(after.encodes-before.encodes) / pubs
}

// processedSum adds up the inbound counters of the given message types
// across brokers.
func processedSum(stats []broker.Stats, types ...wire.Type) uint64 {
	var n uint64
	for _, s := range stats {
		for _, t := range types {
			n += s.Processed[t]
		}
	}
	return n
}

// runSchedule calls fire(i) at start+due[i] for every i in order, never
// waiting for a call to finish before the next one is due: a call that
// returns late makes the next ones late, and late records by how much.
//
// With spin, the caller waits for each due time by yielding the processor
// in a loop instead of sleeping. The Go scheduler then runs the goroutines
// a call readied at once, on a processor that never idles, so an
// in-process overlay's latency no longer includes the time the host takes
// to resume an idle vCPU (see README.md, Generator). Over sockets the
// spin starves the runtime's network poller, so TCP workloads sleep.
func runSchedule(start time.Time, due []time.Duration, fire func(i int), late *Hist, spin bool) {
	if !spin {
		defer lockPrecise()()
	}
	for i, d := range due {
		now := time.Since(start)
		for ; spin && now < d; now = time.Since(start) {
			runtime.Gosched()
		}
		if wait := d - now; wait > 0 {
			sleepFor(wait)
			now = time.Since(start)
		}
		late.Record(int64(now - d))
		fire(i)
	}
}

// waitCount waits until count() reaches want, up to timeout.
func waitCount(count func() int64, want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for count() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %d of %d after %v", errTimeout, count(), want, timeout)
		}
		sleepFor(100 * time.Microsecond)
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianSpan(spans []Span, name string) (int64, bool) {
	var ds []int64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, s.End-s.Start)
		}
	}
	if len(ds) == 0 {
		return 0, false
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], true
}
