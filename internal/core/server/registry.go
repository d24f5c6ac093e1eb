package server

import (
	"fmt"
	"hash/maphash"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/oatable"
	"repro/internal/obs"
)

// ContextRegistry is the server's cross-user context cache plus the
// last-written-location memory, sharded N ways by hash(userID) so that
// ingest workers handling distinct users never contend on one lock. All
// context entries for a user live on that user's shard, which makes a
// per-user group of writes (one item's classified value plus its carried
// context snapshot) atomic with respect to readers: a cross-user filter
// evaluation can never observe a torn half of one item's update.
type ContextRegistry struct {
	shards []ctxShard
	seed   maphash.Seed // hashes user ids, and values, in every shard

	locationWrites *obs.Counter
	locationSkips  *obs.Counter
}

// Registry at rest
//
// A shard keeps no Go object per user. Its state is
//
//	names  append-only string chunks of uvarint(len) user ids (strChunks)
//	slots  []ctxSlot in first-seen order: the offset of the user's id in
//	       names and one value ref per context modality, 0 for none
//	users  an open-addressed table (internal/oatable) from user id to
//	       slot+1, compared against the id in its chunk
//	dict   the values the slots refer to, each held once per shard with a
//	       count of the refs to it (valueDict)
//	locs   the remembered locations, only of users that have one, and a
//	       table from slot to loc+1
//
// A write copies the user id and the value it keeps, so the registry never
// holds on to a caller's string (a decoded item's, say). A value the
// dictionary cannot take, longer than valueMax or arriving when every ref is
// in use, is held in the shard's overflow map under its slot and field
// instead: no value is ever dropped, and the map is empty unless that
// happens.
type ctxShard struct {
	mu      sync.Mutex
	seed    maphash.Seed
	names   strChunks
	slots   []ctxSlot
	users   oatable.Table
	nusers  int // slots holding at least one value
	entries int // values held, one per (user, modality)
	dict    valueDict
	locs    []ctxLoc
	locAt   oatable.Table // slot → index in locs + 1
	// over holds the values the dictionary could not take, by overKey.
	over map[uint64]string
}

// ctxModalities is the number of context modalities, the length of
// core.ContextModalities().
const ctxModalities = 8

// ctxSlot is one user's record.
type ctxSlot struct {
	name uint32                // offset of the user id in the shard's names
	vals [ctxModalities]uint16 // value refs by core.ContextModalityIndex
}

// ctxLoc is a remembered location: the point and city of the user's last
// successful registry write.
type ctxLoc struct {
	slot uint32
	city uint16 // value ref
	pt   geo.Point
}

// locField is the overflow field of a location's city; fields below it are
// context modalities.
const locField = ctxModalities

// overKey is the overflow map key of a slot's field.
func overKey(slot uint32, field uint8) uint64 { return uint64(slot)<<4 | uint64(field) }

const (
	// userLoad bounds a shard's user table at ¾ (in eighths): a first-seen
	// user probes it and misses.
	userLoad = 6
	// valueLoad bounds a dictionary's table at ¾: it is small, and misses
	// only when a value is new to the shard.
	valueLoad = 6
	// refOverflow is the value ref of a value held in the overflow map.
	refOverflow = 1<<16 - 1
	// maxValues is how many values a shard's dictionary holds at once:
	// every ref but 0 (none) and refOverflow.
	maxValues = refOverflow - 1
	// valueMax is the longest value the dictionary takes: labels, place
	// names and clock times fit, free text does not.
	valueMax = 64
	// chunkSize is the largest name or dictionary chunk, and firstChunk the
	// first one: chunks double up to chunkSize, so a shard of a few users
	// does not hold a full chunk.
	chunkSize  = 4 << 10
	firstChunk = 256
)

// noModality stands for a name outside the context vocabulary: no entry
// carries it, so a lookup by it finds nothing.
const noModality = uint8(255)

// modalityIndex maps a context modality name to its entry tag.
func modalityIndex(name string) uint8 {
	if i, ok := core.ContextModalityIndex(name); ok {
		return uint8(i)
	}
	return noModality
}

// ctxCondition is a filter condition with its modality resolved once, at
// filter install time, to the tag evalUser compares entries by.
type ctxCondition struct {
	core.Condition
	modality uint8
}

// NewContextRegistry builds a registry with n shards (non-positive falls
// back to the pipeline default). Counters register against metrics (the
// families sensocial_context_*); nil metrics uses a private registry so
// the counters always exist.
func NewContextRegistry(n int, metrics *obs.Registry) *ContextRegistry {
	return newContextRegistry(n, metrics, maxValues)
}

// newContextRegistry is NewContextRegistry with each shard's dictionary
// bounded at values entries.
func newContextRegistry(n int, metrics *obs.Registry, values int) *ContextRegistry {
	if n <= 0 {
		n = 8
	}
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	r := &ContextRegistry{shards: make([]ctxShard, n), seed: maphash.MakeSeed()}
	for i := range r.shards {
		r.shards[i].seed = r.seed
		r.shards[i].dict.max = values
	}
	r.locationWrites = metrics.Counter("sensocial_context_location_writes_total",
		"Location documents actually written to the user registry.")
	r.locationSkips = metrics.Counter("sensocial_context_location_skips_total",
		"Location updates elided because point and city were unchanged.")
	metrics.GaugeFunc("sensocial_context_users",
		"Users with at least one context entry in the cache.",
		func() float64 { return float64(r.total(func(sh *ctxShard) int { return sh.nusers })) })
	metrics.GaugeFunc("sensocial_context_entries",
		"Context values, one per (user, modality), held in the cache.",
		func() float64 { return float64(r.total(func(sh *ctxShard) int { return sh.entries })) })
	metrics.GaugeFunc("sensocial_context_bytes",
		"Bytes the context cache holds in name chunks, records, tables and value dictionaries.",
		func() float64 { return float64(r.total((*ctxShard).bytes)) })
	return r
}

// shardOf returns the shard owning a user and the user's hash: its high
// half picks the shard, its low bits the user's home cell in the shard's
// table.
//
//sensolint:hotpath
func (r *ContextRegistry) shardOf(userID string) (*ctxShard, uint64) {
	h := maphash.String(r.seed, userID)
	return &r.shards[uint32(h>>32)%uint32(len(r.shards))], h
}

// total sums a per-shard count, reading each shard under its lock.
func (r *ContextRegistry) total(count func(*ctxShard) int) int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += count(sh)
		sh.mu.Unlock()
	}
	return n
}

// bytes is what the shard holds, by capacity: chunks, records, tables,
// dictionary and, for each overflow value, its bytes and 24 B of key and
// string header. The caller holds mu.
func (sh *ctxShard) bytes() int {
	n := sh.names.bytes + cap(sh.slots)*20 + len(sh.users)*4 +
		sh.dict.bytes() + cap(sh.locs)*24 + len(sh.locAt)*4
	for _, v := range sh.over {
		n += len(v) + 24
	}
	return n
}

// find returns the slot of the user hashed to h, if the shard has one, and
// the table position it is filed at or would be. The caller holds mu.
func (sh *ctxShard) find(userID string, h uint64) (pos int, slot uint32, ok bool) {
	pos, v := sh.users.Probe(h, func(v uint32) bool {
		return sh.names.at(sh.slots[v-1].name) == userID
	})
	return pos, v - 1, v != 0
}

// slotLocked returns the slot of the user hashed to h, giving a
// first-seen user one.
func (sh *ctxShard) slotLocked(userID string, h uint64) uint32 {
	if sh.users.Crowded(len(sh.slots)+1, userLoad) {
		sh.users = make(oatable.Table, oatable.Size(len(sh.slots)+1, userLoad))
		for s := range sh.slots {
			sh.users.Place(maphash.String(sh.seed, sh.names.at(sh.slots[s].name)), uint32(s+1))
		}
	}
	pos, s, ok := sh.find(userID, h)
	if !ok {
		s = uint32(len(sh.slots))
		sh.slots = append(sh.slots, ctxSlot{name: sh.names.add(userID)})
		sh.users[pos] = s + 1
	}
	return s
}

// value returns the value a ref of field key holds; ok is false for none.
// The caller holds mu.
func (sh *ctxShard) value(ref uint16, key uint64) (v string, ok bool) {
	switch ref {
	case 0:
		return "", false
	case refOverflow:
		return sh.over[key], true
	}
	return sh.dict.str(ref), true
}

// store makes the field at *ref, whose overflow key is key, hold v, and
// reports whether it held nothing before. The caller holds mu.
func (sh *ctxShard) store(ref *uint16, key uint64, v string) (added bool) {
	switch old := *ref; old {
	case 0:
	case refOverflow:
		if sh.over[key] == v {
			return false
		}
		delete(sh.over, key)
	default:
		if sh.dict.str(old) == v {
			return false
		}
		sh.dict.release(sh.seed, old)
	}
	added = *ref == 0
	*ref = sh.dict.intern(sh.seed, v)
	if *ref == refOverflow {
		if sh.over == nil {
			sh.over = make(map[uint64]string)
		}
		sh.over[key] = strings.Clone(v)
	}
	return added
}

// setLocked records one context value for the user in slot s.
func (sh *ctxShard) setLocked(s uint32, modality uint8, value string) {
	rec := &sh.slots[s]
	had := rec.vals != [ctxModalities]uint16{}
	if sh.store(&rec.vals[modality], overKey(s, modality), value) {
		sh.entries++
		if !had {
			sh.nusers++
		}
	}
}

// Set records one context value for a user. A modality outside
// core.ContextModalities() is refused: no filter could ever read it back.
func (r *ContextRegistry) Set(userID, modality, value string) error {
	if userID == "" {
		return nil
	}
	mod := modalityIndex(modality)
	if mod == noModality {
		return fmt.Errorf("server: context of %q: unknown modality %q", userID, modality)
	}
	sh, h := r.shardOf(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.setLocked(sh.slotLocked(userID, h), mod, value)
	return nil
}

// ApplyItem folds one item's context contribution into the registry under a
// single shard lock: the classified value (re-keyed by the producing
// sensor's context modality) and every same-user entry of the carried
// context snapshot land atomically.
//
//sensolint:hotpath
func (r *ContextRegistry) ApplyItem(item core.Item) {
	if item.UserID == "" {
		return
	}
	classifiedMod := noModality
	if item.Granularity == core.GranularityClassified && item.Classified != "" {
		if ctxMod, err := core.ContextForSensor(item.Modality); err == nil {
			classifiedMod = modalityIndex(ctxMod)
		}
	}
	if classifiedMod == noModality && len(item.Context) == 0 {
		return
	}
	sh, h := r.shardOf(item.UserID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot, found := uint32(0), false
	if classifiedMod != noModality {
		slot, found = sh.slotLocked(item.UserID, h), true
		sh.setLocked(slot, classifiedMod, item.Classified)
	}
	for k, v := range item.Context {
		// Only same-user context entries (plain modality keys) are re-keyed
		// under the item's user.
		if mod := modalityIndex(k); mod != noModality {
			if !found {
				slot, found = sh.slotLocked(item.UserID, h), true
			}
			sh.setLocked(slot, mod, v)
		}
	}
}

// evalUser reports whether the user's context satisfies every condition,
// read in place under that user's shard lock: the conditions see one
// consistent record, never a half of one item's update, and nothing is
// copied out.
//
//sensolint:hotpath
func (r *ContextRegistry) evalUser(userID string, conds []ctxCondition) bool {
	sh, h := r.shardOf(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, slot, known := sh.find(userID, h)
	for i := range conds {
		got, ok := "", false
		if mod := conds[i].modality; known && mod < ctxModalities {
			got, ok = sh.value(sh.slots[slot].vals[mod], overKey(slot, mod))
		}
		if !conds[i].EvalValue(got, ok) {
			return false
		}
	}
	return true
}

// appendUserLocked adds the values of the user in slot s to out under
// their cross-user keys.
func (sh *ctxShard) appendUserLocked(out core.Context, userID string, s uint32, names []string) {
	for mod, ref := range sh.slots[s].vals {
		if v, ok := sh.value(ref, overKey(s, uint8(mod))); ok {
			out[core.Key(userID, names[mod])] = v
		}
	}
}

// SnapshotUsers copies the context entries of the given users into a
// cross-user keyed core.Context. Each user's entries are copied under that
// user's shard lock, so per-user groups are internally consistent.
func (r *ContextRegistry) SnapshotUsers(userIDs []string) core.Context {
	names := core.ContextModalities()
	out := make(core.Context, len(userIDs)*2)
	for _, u := range userIDs {
		sh, h := r.shardOf(u)
		sh.mu.Lock()
		if _, s, ok := sh.find(u, h); ok {
			sh.appendUserLocked(out, u, s, names)
		}
		sh.mu.Unlock()
	}
	return out
}

// SnapshotAll merges every shard into one cross-user keyed core.Context.
func (r *ContextRegistry) SnapshotAll() core.Context {
	names := core.ContextModalities()
	out := make(core.Context)
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for s := range sh.slots {
			sh.appendUserLocked(out, sh.names.at(sh.slots[s].name), uint32(s), names)
		}
		sh.mu.Unlock()
	}
	return out
}

// slotHash is the loc table hash of a slot number.
func slotHash(s uint32) uint64 {
	h := uint64(s) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// findLoc returns the remembered location of the user hashed to h, if
// there is one. The caller holds mu.
func (sh *ctxShard) findLoc(userID string, h uint64) (*ctxLoc, bool) {
	_, s, ok := sh.find(userID, h)
	if !ok {
		return nil, false
	}
	_, v := sh.locAt.Probe(slotHash(s), func(v uint32) bool { return sh.locs[v-1].slot == s })
	if v == 0 {
		return nil, false
	}
	return &sh.locs[v-1], true
}

// lastPoint returns the point of the user's last successful registry write,
// if one is remembered.
//
//sensolint:hotpath
func (r *ContextRegistry) lastPoint(userID string) (geo.Point, bool) {
	sh, h := r.shardOf(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if loc, ok := sh.findLoc(userID, h); ok {
		return loc.pt, true
	}
	return geo.Point{}, false
}

// LocationUnchanged reports whether a pending registry write for the user
// matches the last successfully written point and city, i.e. would be a
// no-op. The skip is counted.
//
//sensolint:hotpath
func (r *ContextRegistry) LocationUnchanged(userID string, pt geo.Point, city string) bool {
	sh, h := r.shardOf(userID)
	sh.mu.Lock()
	same := false
	if loc, ok := sh.findLoc(userID, h); ok && loc.pt == pt {
		last, _ := sh.value(loc.city, overKey(loc.slot, locField))
		same = last == city
	}
	sh.mu.Unlock()
	if same {
		r.locationSkips.Inc()
	}
	return same
}

// RememberLocation records a successful registry write so subsequent
// identical fixes can be skipped.
func (r *ContextRegistry) RememberLocation(userID string, pt geo.Point, city string) {
	sh, h := r.shardOf(userID)
	sh.mu.Lock()
	loc, ok := sh.findLoc(userID, h)
	if !ok {
		s := sh.slotLocked(userID, h)
		if sh.locAt.Crowded(len(sh.locs)+1, userLoad) {
			sh.locAt = make(oatable.Table, oatable.Size(len(sh.locs)+1, userLoad))
			for i := range sh.locs {
				sh.locAt.Place(slotHash(sh.locs[i].slot), uint32(i+1))
			}
		}
		sh.locs = append(sh.locs, ctxLoc{slot: s})
		sh.locAt.Place(slotHash(s), uint32(len(sh.locs)))
		loc = &sh.locs[len(sh.locs)-1]
	}
	loc.pt = pt
	sh.store(&loc.city, overKey(loc.slot, locField), city)
	sh.mu.Unlock()
	r.locationWrites.Inc()
}

// valueDict holds a shard's values, each once, with a count of the slot
// and location fields that refer to it. A ref is an entry's index+1. An
// entry no field refers to any more is freed at once: its ref is reused and
// its bytes are dead until the text is compacted, which happens when the
// dead bytes exceed both the live ones and a chunk. So the dictionary holds
// at most about twice the bytes of the values in use.
type valueDict struct {
	text  strChunks
	ents  []dictEntry
	free  []uint16      // refs of freed entries
	cells oatable.Table // value → ref
	max   int           // entries it may hold
	live  int           // text bytes of the entries in use
	dead  int           // text bytes of freed entries
}

// dictEntry is one value: where its text is, and how many fields hold it
// (0 once freed).
type dictEntry struct {
	off  uint32
	refs uint32
}

func (d *valueDict) bytes() int {
	return d.text.bytes + cap(d.ents)*8 + cap(d.free)*2 + len(d.cells)*4
}

// str returns the value ref refers to.
func (d *valueDict) str(ref uint16) string { return d.text.at(d.ents[ref-1].off) }

// intern returns a ref to v, counted, or refOverflow when v is longer than
// valueMax or new to a dictionary whose refs are all in use.
func (d *valueDict) intern(seed maphash.Seed, v string) uint16 {
	if len(v) > valueMax {
		return refOverflow
	}
	h := maphash.String(seed, v)
	if _, c := d.cells.Probe(h, func(c uint32) bool { return d.str(uint16(c)) == v }); c != 0 {
		d.ents[c-1].refs++
		return uint16(c)
	}
	var ref uint16
	switch {
	case len(d.free) > 0:
		ref = d.free[len(d.free)-1]
		d.free = d.free[:len(d.free)-1]
	case len(d.ents) < d.max:
		d.ents = append(d.ents, dictEntry{})
		ref = uint16(len(d.ents))
	default:
		return refOverflow
	}
	if n := len(d.ents) - len(d.free); d.cells.Crowded(n, valueLoad) {
		d.cells = make(oatable.Table, oatable.Size(n, valueLoad))
		for i := range d.ents {
			if d.ents[i].refs > 0 {
				d.cells.Place(maphash.String(seed, d.str(uint16(i+1))), uint32(i+1))
			}
		}
	}
	d.cells.Place(h, uint32(ref))
	d.ents[ref-1] = dictEntry{off: d.text.add(v), refs: 1}
	d.live += entrySize(v)
	return ref
}

// release drops one count of ref, freeing the entry when it was the last.
func (d *valueDict) release(seed maphash.Seed, ref uint16) {
	if d.ents[ref-1].refs--; d.ents[ref-1].refs > 0 {
		return
	}
	v := d.str(ref)
	pos, _ := d.cells.Probe(maphash.String(seed, v), func(c uint32) bool { return c == uint32(ref) })
	d.cells.Unfile(pos, func(c uint32) uint64 { return maphash.String(seed, d.str(uint16(c))) })
	d.free = append(d.free, ref)
	d.live -= entrySize(v)
	d.dead += entrySize(v)
	if d.dead > d.live && d.dead >= chunkSize {
		var text strChunks
		for i := range d.ents {
			if d.ents[i].refs > 0 {
				d.ents[i].off = text.add(d.str(uint16(i + 1)))
			}
		}
		d.text, d.dead = text, 0
	}
}

// strChunks holds strings back to back, each after its uvarint length, in
// chunks of firstChunk bytes doubling up to chunkSize (one longer string
// gets a chunk of its own). A string starts inside the first chunkSize
// bytes of its chunk, so its offset is chunk*chunkSize plus that start,
// and a strChunks holds up to 4 GiB. A chunk is
// a strings.Builder grown once to its full size, so what is written never
// moves: a string read from it stays valid, and needs no copy, while later
// ones are added behind it.
type strChunks struct {
	chunks []string // what each chunk holds so far
	last   *strings.Builder
	bytes  int // capacity of the chunks
}

// entrySize is the bytes v takes in a strChunks.
func entrySize(v string) int {
	n := 1
	for l := len(v); l >= 0x80; l >>= 7 {
		n++
	}
	return n + len(v)
}

// add appends v and returns its offset.
func (c *strChunks) add(v string) uint32 {
	size := entrySize(v)
	if c.last == nil || c.last.Len() >= chunkSize || c.last.Len()+size > c.last.Cap() {
		next := firstChunk
		if c.last != nil {
			next = min(2*c.last.Cap(), chunkSize)
		}
		c.last = new(strings.Builder)
		c.last.Grow(max(next, size))
		c.chunks = append(c.chunks, "")
		c.bytes += c.last.Cap()
	}
	k := len(c.chunks) - 1
	off := uint32(k*chunkSize + c.last.Len())
	for l := uint(len(v)); ; l >>= 7 {
		if l < 0x80 {
			c.last.WriteByte(byte(l))
			break
		}
		c.last.WriteByte(byte(l) | 0x80)
	}
	c.last.WriteString(v)
	c.chunks[k] = c.last.String()
	return off
}

// at returns the string add stored at off.
func (c *strChunks) at(off uint32) string {
	s := c.chunks[off/chunkSize][off%chunkSize:]
	n, i := uint(0), 0
	for shift := 0; ; shift += 7 {
		b := s[i]
		i++
		n |= uint(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	return s[i : i+int(n)]
}
