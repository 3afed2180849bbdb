package routing

import (
	"math/bits"
	"sync"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

// matchIndex is a predicate-counting index over the table's entries, with
// access-predicate clustering (Fabret et al., SIGMOD 2001) for filters that
// carry an equality. Rows come in two kinds:
//
//   - access rows: a filter with at least one non-NaN = constraint is
//     posted once, under one of them (its access predicate, or pivot). A
//     probe that hits that bucket has established the pivot, so the row
//     is verified directly against the notification and never counted.
//     Its other constraints have no postings at all.
//   - counting rows: every other filter (in-only, range-only, prefix,
//     exists, ...) has each constraint grouped by (attribute, operator
//     class) into typed posting lists, and matching counts how many of its
//     constraints are satisfied — the classic counting algorithm. The row
//     matches exactly when its count reaches its constraint total.
//
// Either way the per-notification cost is driven by the postings a
// notification hits, not by the number of table entries; access rows keep
// a conjunction like region ∧ fleet ∧ speed-range out of every broad range
// probe that its equalities would fail anyway.
//
// Storage is struct-of-arrays, sized for 10⁶ entries: rows live in a paged
// vector indexed by int32 slot, hops and owner identities are interned
// once into append-only side tables, and every posting is an 8-byte
// slot+generation pair. There are no per-entry heap nodes and no rendered
// key strings; row identity is a 64-bit content hash resolved through an
// open-addressed identity table.
//
// Posting lists by operator class:
//
//   - equality (=, in):      open-addressed buckets keyed by operand value
//   - ordered (<, <=, >, >=, range): sorted static runs with max-upper-bound
//     segment trees (see ivlist.go), O(log n + k) per probe
//   - string prefix:         per-length hash lookup (see prefixTable)
//   - exists:                a flat list, satisfied by attribute presence
//   - everything else (!=, suffix, contains): a per-attribute scan list
//     evaluated directly against the attribute value
//
// Removal is logical-first: freeing a row bumps its generation, which
// invalidates its postings everywhere at once; posting storage is
// reclaimed by per-container amortized compaction. The index is maintained
// incrementally by insertEntry/removeSlot and is not concurrency-safe on
// its own; Table's lock covers it. Snapshots are shallow struct copies
// under the copy-on-write epoch protocol of pvec.go — see share().
type matchIndex struct {
	// epoch is the copy-on-write ownership stamp: bumped by share(), so
	// the first write to any container after a snapshot copies what the
	// snapshot can see. Starts at 1 so zero-valued stamps are never owned.
	epoch    uint64
	rows     pvec[row]
	free     cowslice[int32]
	matchAll postlist
	attrs    cowslice[attrRef] // per-attribute indexes, sorted by name
	postings int               // live posted constraints (see IndexStats.Postings)
	liveRows int

	// Mutation-plane state: written in place under the table lock and
	// never read on the match path, so snapshots carry stale copies of
	// these fields harmlessly.
	ident   identTable
	hops    []hopInfo // append-only hop intern table
	hopIDs  map[wire.Hop]int32
	idents  []identKey // append-only owner intern table
	identID map[identKey]int32
	eqSeen  map[string]*eqSketch // per attribute, allocated on first use; see choosePivot

	// identPosts / hopPosts are the per-owner and per-hop slot posting
	// lists behind the O(k) enumeration paths (ClientEntries,
	// RemoveClient, RemoveHop, hop-overlap checks) — see postings.go.
	// Indexed by intern id, parallel to idents/hops. The empty owner
	// identity is never posted: every aggregate entry shares it, so its
	// list would be the table over again (those callers keep the scan
	// path). identPostLive/hopPostLive aggregate the live posting counts
	// so IndexStats stays O(1) and leak tests can assert drain-to-zero.
	identPosts    []mutPostings
	hopPosts      []mutPostings
	identPostLive int
	hopPostLive   int

	pool *sync.Pool // *scratch; shared with snapshots (pools must not be copied)
}

// row is one table entry in SoA form: ~80 B plus its postings, versus the
// pointer-heavy idxEntry + cached key strings of the old layout. The
// counting fields lead so the match hot path touches the first cache line.
type row struct {
	hash    uint64 // entryIdentHash of the entry
	hopID   int32  // intern id; -1 marks a freed row
	identID int32
	// total is the constraint count of a counting row, or -(pivot+1) for
	// an access row posted under constraint f.At(pivot). Encoding the
	// pivot here keeps the row at its size (a separate field would add
	// 8 B per row after padding).
	total int32
	gen   uint32
	f     filter.Filter
}

// pivot returns the position of an access row's access predicate, or -1
// for a counting row.
func (r *row) pivot() int {
	if r.total < 0 {
		return int(-r.total) - 1
	}
	return -1
}

type hopInfo struct {
	hop wire.Hop
	key string // hop.String(), rendered once: hop-ordered outputs sort by it
}

type identKey struct {
	c wire.ClientID
	s wire.SubID
}

// attrRef pairs an indexed attribute name with its posting lists; the
// matchIndex keeps these sorted by name for the merge-based match walk.
type attrRef struct {
	name string
	ai   *attrIndex
}

type attrIndex struct {
	stamp     uint64 // copy-on-write ownership stamp (see attrW)
	live      int32  // live constraints under this attribute
	eq        valTable
	prefixes  prefixTable
	exists    postlist
	anyString postlist // empty-prefix constraints: every string value matches
	scan      scanlist
	ivI       ivlist[int64]
	ivF       ivlist[float64]
	ivS       ivlist[string]
}

func newMatchIndex() *matchIndex {
	return &matchIndex{
		epoch:   1,
		hopIDs:  make(map[wire.Hop]int32),
		identID: make(map[identKey]int32),
		pool:    &sync.Pool{},
	}
}

// share returns an immutable view of the index for a snapshot: a shallow
// struct copy, after which the live index's epoch moves on so its next
// write to any shared page or slice copies it first. O(1) plus the struct
// copy, independent of table size.
func (x *matchIndex) share() *matchIndex {
	c := *x
	x.epoch++
	return &c
}

// rowLive reports whether a posting still references a live row: freeing a
// row bumps its generation, invalidating every posting created for it.
func (x *matchIndex) rowLive(sg slotGen) bool {
	return x.rows.at(sg.slot).gen == sg.gen
}

func (x *matchIndex) fillEntry(slot int32, e *Entry) {
	r := x.rows.at(slot)
	id := x.idents[r.identID]
	e.Filter = r.f
	e.Hop = x.hops[r.hopID].hop
	e.Client = id.c
	e.SubID = id.s
}

func (x *matchIndex) entryAt(slot int32) Entry {
	var e Entry
	x.fillEntry(slot, &e)
	return e
}

func (x *matchIndex) forEachLiveSlot(fn func(slot int32, r *row)) {
	for i := 0; i < x.rows.len(); i++ {
		r := x.rows.at(int32(i))
		if r.hopID >= 0 {
			fn(int32(i), r)
		}
	}
}

// findAttr binary-searches the sorted attribute list for name, returning
// its index, or the insertion point and false.
func (x *matchIndex) findAttr(name string) (int, bool) {
	attrs := x.attrs.s
	lo, hi := 0, len(attrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if attrs[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(attrs) && attrs[lo].name == name
}

// attrW returns the attribute index at position i ready for mutation,
// cloning its top-level struct if a snapshot may share it (the inner
// containers copy-on-write themselves).
func (x *matchIndex) attrW(i int) *attrIndex {
	as := x.attrs.own(x.epoch)
	ai := (*as)[i].ai
	if ai.stamp != x.epoch {
		c := *ai
		c.stamp = x.epoch
		(*as)[i].ai = &c
		ai = (*as)[i].ai
	}
	return ai
}

func (x *matchIndex) internHop(h wire.Hop) int32 {
	if id, ok := x.hopIDs[h]; ok {
		return id
	}
	id := int32(len(x.hops))
	x.hops = append(x.hops, hopInfo{hop: h, key: h.String()})
	x.hopPosts = append(x.hopPosts, mutPostings{})
	x.hopIDs[h] = id
	return id
}

func (x *matchIndex) internIdent(c wire.ClientID, s wire.SubID) int32 {
	k := identKey{c: c, s: s}
	if id, ok := x.identID[k]; ok {
		return id
	}
	id := int32(len(x.idents))
	x.idents = append(x.idents, k)
	x.identPosts = append(x.identPosts, mutPostings{})
	x.identID[k] = id
	return id
}

// lookupSlot finds the row holding exactly this entry, or -1.
func (x *matchIndex) lookupSlot(e Entry, hash uint64) int32 {
	return x.ident.lookup(hash, func(slot int32) bool {
		r := x.rows.at(slot)
		if r.hash != hash || r.hopID < 0 || x.hops[r.hopID].hop != e.Hop {
			return false
		}
		if id := x.idents[r.identID]; id.c != e.Client || id.s != e.SubID {
			return false
		}
		return identFilterEqual(r.f, e.Filter)
	})
}

// ---------------------------------------------------------------------------
// Maintenance: insert / remove.
// ---------------------------------------------------------------------------

// insertEntry adds the entry, reporting whether it was not already present.
func (x *matchIndex) insertEntry(e Entry) bool {
	h := entryIdentHash(e)
	if x.lookupSlot(e, h) >= 0 {
		return false
	}
	hopID := x.internHop(e.Hop)
	identID := x.internIdent(e.Client, e.SubID)
	var slot int32
	if fs := x.free.own(x.epoch); len(*fs) > 0 {
		slot = (*fs)[len(*fs)-1]
		*fs = (*fs)[:len(*fs)-1]
	} else {
		slot = x.rows.grow(x.epoch)
	}
	pivot := x.choosePivot(e.Filter)
	total := int32(e.Filter.Len())
	if pivot >= 0 {
		total = -int32(pivot) - 1
	}
	r := x.rows.w(slot, x.epoch)
	gen := r.gen // survives free/reuse; postings carry it
	*r = row{hash: h, hopID: hopID, identID: identID, total: total, gen: gen, f: e.Filter}
	x.liveRows++
	sg := slotGen{slot: slot, gen: gen}
	x.hopPosts[hopID].add(sg)
	x.hopPostLive++
	if e.Client != "" {
		x.identPosts[identID].add(sg)
		x.identPostLive++
	}
	switch {
	case e.Filter.Len() == 0:
		x.matchAll.add(x, sg)
	case pivot >= 0:
		x.post(sg, e.Filter.At(pivot))
	default:
		for ci := 0; ci < e.Filter.Len(); ci++ {
			x.post(sg, e.Filter.At(ci))
		}
	}
	x.ident.insert(x, h, slot)
	return true
}

// choosePivot picks the access predicate of a new row: among the filter's
// non-NaN = constraints, the one whose attribute has shown the most
// distinct = operands so far (the most selective bucket the index can
// tell), the first on ties. It returns -1 when there is none and the row
// is counted. The choice depends on what was inserted before, so removal
// reads it back from the row and never recomputes it.
//
// Distinct operands are counted by eqSeen, not by the attribute's
// equality buckets: access rows leave their other = operands unposted, so
// bucket counts would lock every later row onto whichever attribute the
// first one happened to post. Only filters with a choice to make feed
// eqSeen, so tables without such filters never allocate it.
func (x *matchIndex) choosePivot(f filter.Filter) int {
	pivot, n := -1, 0
	for ci := 0; ci < f.Len(); ci++ {
		if c := f.At(ci); c.Op == filter.OpEQ && !isNaNValue(c.Value) {
			if n == 0 {
				pivot = ci
			}
			n++
		}
	}
	if n < 2 {
		return pivot
	}
	if x.eqSeen == nil {
		x.eqSeen = make(map[string]*eqSketch)
	}
	best := -1
	for ci := 0; ci < f.Len(); ci++ {
		c := f.At(ci)
		if c.Op != filter.OpEQ || isNaNValue(c.Value) {
			continue
		}
		sk := x.eqSeen[c.Attr]
		if sk == nil {
			sk = new(eqSketch)
			x.eqSeen[c.Attr] = sk
		}
		vb, vs := eqPayload(c.Value)
		sk.add(hashValKey(c.Value.Kind(), vb, vs))
		if d := sk.distinct(); d > best {
			pivot, best = ci, d
		}
	}
	return pivot
}

// eqSketch estimates how many distinct = operands an attribute has seen:
// a 256-bit linear-counting bitmap, one bit per operand hash. Its
// popcount grows with the distinct count and resolves small counts well
// (64 values set ~57 bits, 16 set ~16); past about a thousand values it
// nears 256 and stops telling attributes apart, where any choice gives
// small buckets. It is insert-only and lives on the mutation plane; the
// match path never reads it.
type eqSketch [4]uint64

func (s *eqSketch) add(h uint64) {
	h ^= h >> 32
	s[(h>>6)&3] |= 1 << (h & 63)
}

func (s *eqSketch) distinct() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) + bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

// post registers one constraint of the row at sg in its attribute's
// posting lists, creating the attribute index on first use.
func (x *matchIndex) post(sg slotGen, c filter.Constraint) {
	i, ok := x.findAttr(c.Attr)
	if !ok {
		as := x.attrs.own(x.epoch)
		*as = append(*as, attrRef{})
		copy((*as)[i+1:], (*as)[i:])
		(*as)[i] = attrRef{name: c.Attr, ai: &attrIndex{stamp: x.epoch}}
	}
	ai := x.attrW(i)
	ai.live++
	ai.insert(x, sg, c)
	x.postings++
}

// unpost mirrors post for a removed row, dropping the attribute index once
// its last constraint goes.
func (x *matchIndex) unpost(c filter.Constraint) {
	i, ok := x.findAttr(c.Attr)
	if !ok {
		return
	}
	ai := x.attrW(i)
	ai.live--
	ai.remove(x, c)
	x.postings--
	if ai.live == 0 {
		as := x.attrs.own(x.epoch)
		*as = append((*as)[:i], (*as)[i+1:]...)
	}
}

// removeEntry deletes the exact entry, reporting whether it was present.
func (x *matchIndex) removeEntry(e Entry) bool {
	slot := x.lookupSlot(e, entryIdentHash(e))
	if slot < 0 {
		return false
	}
	x.removeSlot(slot)
	return true
}

// removeSlot frees a live row: the generation bump first (so compactions
// running during posting removal already see the row as dead), then the
// per-constraint accounting, then the slot goes back on the free list.
func (x *matchIndex) removeSlot(slot int32) {
	rd := x.rows.at(slot)
	f := rd.f
	hash := rd.hash
	// Captured before the scrub below: rd may alias rw when the page is
	// already owned at the current epoch.
	hopID := rd.hopID
	identID := rd.identID
	pivot := rd.pivot()
	x.ident.remove(hash, slot)
	rw := x.rows.w(slot, x.epoch)
	rw.gen++
	rw.hopID = -1
	rw.identID = -1
	rw.total = 0
	rw.hash = 0
	rw.f = filter.Filter{} // release the filter's backing storage
	x.liveRows--
	// The generation bump above already invalidated the enumeration
	// postings; this is accounting plus amortized compaction.
	x.hopPosts[hopID].removeLazy(x)
	x.hopPostLive--
	if x.idents[identID].c != "" {
		x.identPosts[identID].removeLazy(x)
		x.identPostLive--
	}
	switch {
	case f.Len() == 0:
		x.matchAll.removeLazy(x)
	case pivot >= 0:
		x.unpost(f.At(pivot))
	default:
		for ci := 0; ci < f.Len(); ci++ {
			x.unpost(f.At(ci))
		}
	}
	fs := x.free.own(x.epoch)
	*fs = append(*fs, slot)
}

// rebuild constructs a compact index over the live rows (fresh slots, no
// free-list holes, posting garbage dropped). Used by the snapshot policy
// when churn has left the row vector more than half holes; the rebuilt
// index replaces the live one.
func (x *matchIndex) rebuild() *matchIndex {
	nx := newMatchIndex()
	var e Entry
	x.forEachLiveSlot(func(slot int32, _ *row) {
		x.fillEntry(slot, &e)
		nx.insertEntry(e)
	})
	return nx
}

// isNaNValue reports whether v is a float NaN. NaN operands need special
// routing: NaN is never Equal to anything (so an eq posting would be dead
// weight), and Value.Compare treats NaN as equal to everything, which the
// native-ordered interval runs cannot represent.
func isNaNValue(v message.Value) bool {
	return v.Kind() == message.KindFloat && v.FloatVal() != v.FloatVal()
}

// orderedBoundNaN reports whether an ordered constraint carries a NaN
// bound; such constraints are evaluated on the scan list instead of the
// interval runs so they keep Constraint.Matches' exact semantics.
func orderedBoundNaN(c filter.Constraint) bool {
	if c.Op == filter.OpRange {
		return isNaNValue(c.Lo) || isNaNValue(c.Hi)
	}
	return isNaNValue(c.Value)
}

// eachIndexableInMember visits the members of an in-constraint that get eq
// postings: NaN members (which can never match) and duplicates (which would
// double-count a single constraint) are skipped. Insert and remove share
// this walk so their posting sets cannot diverge.
func eachIndexableInMember(c filter.Constraint, fn func(v message.Value)) {
	for i, v := range c.Values {
		if isNaNValue(v) {
			continue
		}
		dup := false
		for j := 0; j < i; j++ {
			if c.Values[j] == v {
				dup = true
				break
			}
		}
		if !dup {
			fn(v)
		}
	}
}

// orderedKind returns the interval-run kind an ordered constraint indexes
// under, or KindInvalid when it must fall back to the scan list (non-
// orderable operand kinds, or a range whose bounds disagree on kind — the
// scan list reproduces Constraint.Matches exactly for those).
func orderedKind(c filter.Constraint) message.Kind {
	if c.Op == filter.OpRange {
		k := c.Lo.Kind()
		if k != c.Hi.Kind() {
			return message.KindInvalid
		}
		switch k {
		case message.KindInt, message.KindFloat, message.KindString:
			return k
		}
		return message.KindInvalid
	}
	switch k := c.Value.Kind(); k {
	case message.KindInt, message.KindFloat, message.KindString:
		return k
	}
	return message.KindInvalid
}

// ordFlagsBounds extracts the interval form of an ordered constraint.
func ordFlags(c filter.Constraint) uint8 {
	switch c.Op {
	case filter.OpLT:
		return ivHasHi
	case filter.OpLE:
		return ivHasHi | ivHiInc
	case filter.OpGT:
		return ivHasLo
	case filter.OpGE:
		return ivHasLo | ivLoInc
	default: // OpRange
		return ivHasLo | ivLoInc | ivHasHi | ivHiInc
	}
}

func ordBounds(c filter.Constraint) (lo, hi message.Value) {
	if c.Op == filter.OpRange {
		return c.Lo, c.Hi
	}
	switch c.Op {
	case filter.OpLT, filter.OpLE:
		return message.Value{}, c.Value
	default: // OpGT, OpGE
		return c.Value, message.Value{}
	}
}

func (ai *attrIndex) insert(x *matchIndex, sg slotGen, c filter.Constraint) {
	switch c.Op {
	case filter.OpEQ:
		if isNaNValue(c.Value) {
			return // never matches; no posting keeps the entry incompletable
		}
		bits, str := eqPayload(c.Value)
		ai.eq.add(x, c.Value.Kind(), bits, str, sg)
	case filter.OpIn:
		// One posting per distinct set member; a notification value equals
		// at most one member, so the constraint still counts at most once.
		eachIndexableInMember(c, func(v message.Value) {
			bits, str := eqPayload(v)
			ai.eq.add(x, v.Kind(), bits, str, sg)
		})
	case filter.OpExists:
		ai.exists.add(x, sg)
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE, filter.OpRange:
		if orderedBoundNaN(c) {
			ai.scan.add(x, sg, c)
			return
		}
		lo, hi := ordBounds(c)
		switch orderedKind(c) {
		case message.KindInt:
			ai.ivI.insert(x, ivEntry[int64]{lo: lo.IntVal(), hi: hi.IntVal(), flags: ordFlags(c), sg: sg})
		case message.KindFloat:
			ai.ivF.insert(x, ivEntry[float64]{lo: lo.FloatVal(), hi: hi.FloatVal(), flags: ordFlags(c), sg: sg})
		case message.KindString:
			ai.ivS.insert(x, ivEntry[string]{lo: lo.Str(), hi: hi.Str(), flags: ordFlags(c), sg: sg})
		default:
			ai.scan.add(x, sg, c)
		}
	case filter.OpPrefix:
		p := c.Value.Str()
		if p == "" {
			ai.anyString.add(x, sg)
		} else {
			ai.prefixes.add(x, p, sg)
		}
	default:
		// !=, suffix, contains, and malformed operators: evaluated directly.
		ai.scan.add(x, sg, c)
	}
}

// remove mirrors insert's routing so every container's live/dead
// accounting matches what insert registered. The row generation was
// already bumped, so this is bookkeeping plus amortized compaction.
func (ai *attrIndex) remove(x *matchIndex, c filter.Constraint) {
	switch c.Op {
	case filter.OpEQ:
		if isNaNValue(c.Value) {
			return // mirrored skip: insert registered nothing
		}
		ai.eq.removeLazy(x)
	case filter.OpIn:
		eachIndexableInMember(c, func(message.Value) {
			ai.eq.removeLazy(x)
		})
	case filter.OpExists:
		ai.exists.removeLazy(x)
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE, filter.OpRange:
		if orderedBoundNaN(c) {
			ai.scan.removeLazy(x)
			return
		}
		switch orderedKind(c) {
		case message.KindInt:
			ai.ivI.removeLazy(x)
		case message.KindFloat:
			ai.ivF.removeLazy(x)
		case message.KindString:
			ai.ivS.removeLazy(x)
		default:
			ai.scan.removeLazy(x)
		}
	case filter.OpPrefix:
		if p := c.Value.Str(); p == "" {
			ai.anyString.removeLazy(x)
		} else {
			ai.prefixes.remove(x, p)
		}
	default:
		ai.scan.removeLazy(x)
	}
}

// ---------------------------------------------------------------------------
// Flat posting lists (exists, any-string, match-all, scan).
// ---------------------------------------------------------------------------

// postlist is a flat slotGen list with lazy deletion: removals only count,
// generation checks reject stale postings at probe time, and compaction
// rewrites the list once dead postings dominate.
type postlist struct {
	s    cowslice[slotGen]
	dead int32
}

func (p *postlist) add(x *matchIndex, sg slotGen) {
	ps := p.s.own(x.epoch)
	*ps = append(*ps, sg)
}

func (p *postlist) liveCount() int {
	return len(p.s.s) - int(p.dead)
}

func (p *postlist) removeLazy(x *matchIndex) {
	p.dead++
	if int(p.dead) > p.liveCount() && p.dead > 8 {
		ps := p.s.own(x.epoch)
		kept := (*ps)[:0]
		for _, sg := range *ps {
			if x.rowLive(sg) {
				kept = append(kept, sg)
			}
		}
		*ps = kept
		p.dead = 0
	}
}

func (p *postlist) probe(s *scratch, x *matchIndex) {
	for _, sg := range p.s.s {
		s.bump(sg, x)
	}
}

type scanPosting struct {
	c  filter.Constraint
	sg slotGen
}

type scanlist struct {
	s    cowslice[scanPosting]
	dead int32
}

func (p *scanlist) add(x *matchIndex, sg slotGen, c filter.Constraint) {
	ps := p.s.own(x.epoch)
	*ps = append(*ps, scanPosting{c: c, sg: sg})
}

func (p *scanlist) removeLazy(x *matchIndex) {
	p.dead++
	if int(p.dead) > len(p.s.s)-int(p.dead) && p.dead > 8 {
		ps := p.s.own(x.epoch)
		kept := (*ps)[:0]
		for _, sp := range *ps {
			if x.rowLive(sp.sg) {
				kept = append(kept, sp)
			}
		}
		*ps = kept
		p.dead = 0
	}
}

func (p *scanlist) probe(v message.Value, s *scratch, x *matchIndex) {
	for i := range p.s.s {
		sp := &p.s.s[i]
		if sp.c.MatchesValue(v) {
			s.bump(sp.sg, x)
		}
	}
}

// ---------------------------------------------------------------------------
// Matching.
// ---------------------------------------------------------------------------

// scratch holds the per-match counting state. stamp/epoch versioning makes
// reuse O(1): a slot's count is only trusted when its stamp equals the
// current epoch, so the arrays never need clearing between matches.
type scratch struct {
	counts  []int32
	stamp   []uint32
	epoch   uint32
	matched []int32              // row slots
	n       message.Notification // being matched; access rows verify against it
	hopSeen map[int32]struct{}
	hopOut  []hopRef
	entry   Entry // reused across visit calls; &entry escapes into the callback
}

type hopRef struct {
	key string
	hop wire.Hop
}

func (x *matchIndex) getScratch() *scratch {
	s, _ := x.pool.Get().(*scratch)
	if s == nil {
		s = &scratch{hopSeen: make(map[int32]struct{})}
	}
	s.reset(x.rows.len())
	return s
}

// reset readies s for one match over a row vector of the given length.
func (s *scratch) reset(rows int) {
	if len(s.counts) < rows {
		// Powers of two up to one row page, whole pages beyond: a table
		// growing one row at a time reallocates the arrays once per page
		// (a few times within the first), not on every match after each
		// add, and a small table's arrays stay small.
		if rows > pageSize {
			rows = (rows + pageMask) &^ pageMask
		} else {
			rows = 1 << bits.Len(uint(rows-1))
		}
		s.counts = make([]int32, rows)
		s.stamp = make([]uint32, rows)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide, reset them
		clear(s.stamp)
		s.epoch = 1
	}
	s.matched = s.matched[:0]
}

func (x *matchIndex) putScratch(s *scratch) {
	s.n = message.Notification{} // do not pin the notification in the pool
	x.pool.Put(s)
}

// hit records a satisfied equality posting. Only equality buckets hold
// access rows, so only their probes come through here; every other
// posting list calls bump directly, which stays small enough to inline
// into their loops.
func (s *scratch) hit(sg slotGen, x *matchIndex) {
	r := x.rows.at(sg.slot)
	if r.total >= 0 {
		s.bump(sg, x)
		return
	}
	// An access row's only posting: its pivot holds, so verify the rest
	// directly. No counter is touched.
	if r.gen == sg.gen && r.f.MatchesExcept(s.n, r.pivot()) {
		s.matched = append(s.matched, sg.slot)
	}
}

// bump counts one satisfied predicate of a counting row.
func (s *scratch) bump(sg slotGen, x *matchIndex) {
	r := x.rows.at(sg.slot)
	if r.gen != sg.gen {
		return // posting of a removed row; reclaimed by compaction later
	}
	slot := sg.slot
	if s.stamp[slot] != s.epoch {
		s.stamp[slot] = s.epoch
		s.counts[slot] = 1
	} else {
		s.counts[slot]++
	}
	if s.counts[slot] == r.total {
		s.matched = append(s.matched, slot)
	}
}

// match appends the slot of every entry whose filter accepts n to
// s.matched and returns it. The result aliases scratch state and is only
// valid until the scratch is released.
//
// Both the notification's attributes and the index's attribute list are
// sorted by name, so their intersection is found by a sorted merge: one
// linear walk of string comparisons, no hashing, no closure. When one side
// dwarfs the other, binary-searching each element of the small side into
// the large one is cheaper than walking the large side, so the walk
// switches shape on a size ratio.
func (x *matchIndex) match(n message.Notification, s *scratch) []int32 {
	s.n = n
	for _, sg := range x.matchAll.s.s {
		if x.rowLive(sg) {
			s.matched = append(s.matched, sg.slot)
		}
	}
	attrs := x.attrs.s
	la, ln := len(attrs), n.Len()
	switch {
	case la == 0 || ln == 0:
	case la <= 8*ln && ln <= 8*la:
		i, j := 0, 0
		for i < la && j < ln {
			a := n.At(j)
			switch {
			case attrs[i].name < a.Name:
				i++
			case attrs[i].name > a.Name:
				j++
			default:
				attrs[i].ai.probe(a.Value, s, x)
				i++
				j++
			}
		}
	case ln < la:
		for j := 0; j < ln; j++ {
			a := n.At(j)
			if i, ok := x.findAttr(a.Name); ok {
				attrs[i].ai.probe(a.Value, s, x)
			}
		}
	default:
		for i := range attrs {
			if v, ok := n.Get(attrs[i].name); ok {
				attrs[i].ai.probe(v, s, x)
			}
		}
	}
	return s.matched
}

func (ai *attrIndex) probe(v message.Value, s *scratch, x *matchIndex) {
	ai.exists.probe(s, x)
	nan := isNaNValue(v)
	if !nan && ai.eq.live > 0 {
		bits, str := eqPayload(v)
		ai.eq.probe(v.Kind(), bits, str, s, x)
	}
	switch v.Kind() {
	case message.KindInt:
		ai.ivI.probe(v.IntVal(), s, x)
	case message.KindFloat:
		if nan {
			// Value.Compare orders NaN equal to everything, so NaN is
			// admitted exactly by the inclusive bounds.
			ai.ivF.probeInclusive(s, x)
		} else {
			ai.ivF.probe(v.FloatVal(), s, x)
		}
	case message.KindString:
		str := v.Str()
		ai.ivS.probe(str, s, x)
		ai.anyString.probe(s, x)
		if str != "" {
			ai.prefixes.probe(str, s, x)
		}
	}
	ai.scan.probe(v, s, x)
}

// ---------------------------------------------------------------------------
// Canonical ordering of matched rows.
// ---------------------------------------------------------------------------

// cmpSlots orders row slots by (identity hash, content) — the canonical
// deterministic order shared with cmpEntryCanonical on plain entries.
func (x *matchIndex) cmpSlots(a, b int32) int {
	ra, rb := x.rows.at(a), x.rows.at(b)
	if ra.hash != rb.hash {
		if ra.hash < rb.hash {
			return -1
		}
		return 1
	}
	return cmpEntryContent(x.entryAt(a), x.entryAt(b))
}

// sortSlots sorts slots in canonical order without allocating (a closure
// handed to slices.SortFunc would escape on the publish hot path).
func (x *matchIndex) sortSlots(sl []int32) {
	if len(sl) < 16 {
		for i := 1; i < len(sl); i++ {
			for j := i; j > 0 && x.cmpSlots(sl[j], sl[j-1]) < 0; j-- {
				sl[j], sl[j-1] = sl[j-1], sl[j]
			}
		}
		return
	}
	mid := sl[len(sl)/2]
	lt, i, gt := 0, 0, len(sl)
	for i < gt {
		c := x.cmpSlots(sl[i], mid)
		switch {
		case c < 0:
			sl[lt], sl[i] = sl[i], sl[lt]
			lt++
			i++
		case c > 0:
			gt--
			sl[gt], sl[i] = sl[i], sl[gt]
		default:
			i++
		}
	}
	x.sortSlots(sl[:lt])
	x.sortSlots(sl[gt:])
}

// eachMatching is the shared visit-in-canonical-order matcher behind
// Table.EachMatchingEntry (under the table's read lock) and
// Snapshot.EachMatchingEntry (lock-free on the immutable copy). The Entry
// pointer handed to visit is reused across calls and only valid during
// each call.
func (x *matchIndex) eachMatching(n message.Notification, from wire.Hop, visit func(*Entry)) {
	s := x.getScratch()
	defer x.putScratch(s)
	matched := x.match(n, s)
	kept := matched[:0]
	for _, slot := range matched {
		if x.hops[x.rows.at(slot).hopID].hop != from {
			kept = append(kept, slot)
		}
	}
	if len(kept) == 0 {
		return
	}
	x.sortSlots(kept)
	// The Entry lives in the pooled scratch: a local would escape through
	// visit (the compiler cannot see that callbacks don't retain it) and
	// cost one heap allocation per matched publish.
	e := &s.entry
	for _, slot := range kept {
		x.fillEntry(slot, e)
		visit(e)
	}
}

// IndexStats describes the predicate index backing a Table.
type IndexStats struct {
	Entries int // table rows
	Attrs   int // distinct indexed attributes
	// Postings counts the constraints registered in posting lists: every
	// constraint of a counting row, and only the access predicate of an
	// access row. An in-constraint counts once however many members it
	// posts.
	Postings int
	MatchAll int // rows whose filter matches every notification
	// IdentPostings / HopPostings count the live slot postings of the
	// mutation-plane enumeration lists that serve the O(k) relocation
	// paths (ClientEntries / RemoveClient / RemoveHop — see postings.go).
	IdentPostings int
	HopPostings   int
}
