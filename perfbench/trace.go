package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer. ID is the index
// of the notification or operation the call belongs to (spans of one
// notification share it; -1 when there is none). Parent is the SID of the
// span that caused this one, 0 for none. Times are nanoseconds since the
// tracer's epoch.
type Span struct {
	SID    int32  `json:"sid"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer, or one
// that is switched off, records nothing and costs one branch per call.
type Tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Int32
	mu    sync.Mutex
	spans []Span
}

func newTracer(epoch time.Time) *Tracer { return &Tracer{epoch: epoch} }

// token is an open span.
type token struct {
	sid   int32
	start int64
}

// Begin opens a span; the zero token means tracing is off.
func (t *Tracer) Begin() token {
	if t == nil || !t.on.Load() {
		return token{}
	}
	return token{sid: t.next.Add(1), start: int64(time.Since(t.epoch))}
}

// End closes a span opened by Begin.
func (t *Tracer) End(tk token, name string, id int64, parent int32) {
	if tk.sid == 0 {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, Span{SID: tk.sid, Parent: parent, Name: name, ID: id, Start: tk.start, End: end})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// spanCost is what tracing adds to one call, in ns: the median over 15
// batches of 10,000 Begin/End pairs on a tracer of its own.
func spanCost() float64 {
	const batch = 10_000
	var per []float64
	for k := 0; k < 15; k++ {
		t := newTracer(time.Now())
		t.on.Store(true)
		t.spans = make([]Span, 0, batch)
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			t.End(t.Begin(), "span", int64(i), 0)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
	}
	return median(per)
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// readSpans reads a span file written by writeSpans.
func readSpans(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Span
	dec := json.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	for dec.More() {
		var s Span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("read spans %s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// SelfTime is one row of the traced-run report.
type SelfTime struct {
	Name      string
	Count     int
	TotalNs   int64 // sum of span durations
	SelfNs    int64 // sum of durations minus the time covered by child spans
	MedianNs  int64 // median span duration
	ChildSpan int   // spans recorded with this name as parent
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its child spans cover (overlapping
// children are counted once).
func selfTimes(spans []Span) []SelfTime {
	children := make(map[int32][]int, len(spans)/4)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := map[string]*SelfTime{}
	durs := map[string][]int64{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &SelfTime{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.Count++
		r.TotalNs += d
		r.SelfNs += d - coveredNs(s, spans, children[s.SID])
		r.ChildSpan += len(children[s.SID])
		durs[s.Name] = append(durs[s.Name], d)
	}
	out := make([]SelfTime, 0, len(rows))
	for name, r := range rows {
		ds := durs[name]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		r.MedianNs = ds[len(ds)/2]
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent Span, spans []Span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}
