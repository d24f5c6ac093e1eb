package docstore

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"strconv"
	"strings"

	"repro/internal/oatable"
)

// Collections at rest
//
// A collection keeps no Go object per document. Its documents live in three
// pointer-free structures, so the collector marks a handful of chunks, not
// anything per document, and a collection costs the bytes it stores:
//
//	slabs  append-only []byte chunks of entries:
//	       id uvarint(len rec) rec
//	       where id is uvarint(len) text, or uvarint(0) uvarint(n) for the
//	       id <collection name>-<n> with n in canonical decimal
//	slots  []uint64 in insertion order, each chunk<<32 | offset of the
//	       document's current entry, or tombstone once it is deleted
//	ids    an open-addressed table (internal/oatable) from id to
//	       slot+1, compared against the id in the slab
//
// A write appends an entry and points a slot at it, so a replaced document
// keeps its slot and with it its place in insertion order. Written bytes
// never change: a reader may decode a record after unlocking, even if a
// compaction has since moved the document to a fresh slab.
//
// Two rules keep the structures in proportion to what is live. When the
// bytes no slot points at exceed both the live bytes and the current chunk,
// the live entries are rewritten into fresh slabs in slot order
// (compactLocked). When tombstones outnumber live slots, the slots are
// renumbered and the id table and the indexes, which hold slot numbers, are
// rebuilt (renumberLocked). Nothing iterates the id table, so its seeded
// hash never shows in any output.
//
// Every id of the generated form, given or generated, is stored as its
// number (numericID), in the slabs and in the journal and snapshot, which
// copy entries as they are. An id is never
// empty, so a zero length marks the number. Outside this file ids are
// text: the id table hashes the text, and a lookup by an id of the
// generated form compares numbers.

const (
	minChunk  = 4 << 10
	maxChunk  = 1 << 20
	tombstone = ^uint64(0)
	// idLoad bounds the id table at ¾ (in eighths): every Insert of a new
	// id probes it and misses.
	idLoad = 6
)

// splitEntry parses the entry at the start of b. text is the id's text,
// or empty for an id stored as its number num.
func splitEntry(b []byte) (text []byte, num uint64, rec []byte, size int) {
	n, k := binary.Uvarint(b)
	if n == 0 {
		var k2 int
		num, k2 = binary.Uvarint(b[k:])
		k += k2
	}
	text = b[k : k+int(n)]
	m, k2 := binary.Uvarint(b[k+int(n):])
	start := k + int(n) + k2
	end := start + int(m)
	return text, num, b[start:end:end], end
}

// entry reads the entry a slot points at.
func (c *Collection) entry(p uint64) (text []byte, num uint64, rec []byte, size int) {
	return splitEntry(c.slabs[p>>32][uint32(p):])
}

// rawEntry returns the bytes of the entry at p in slabs.
func rawEntry(slabs [][]byte, p uint64) []byte {
	b := slabs[p>>32][uint32(p):]
	_, _, _, size := splitEntry(b)
	return b[:size]
}

// numericID reports whether id is the collection's name, '-' and a
// decimal number with no leading zero that fits a uint64, and the number.
func (c *Collection) numericID(id string) (uint64, bool) {
	digits, ok := strings.CutPrefix(id, c.name)
	if !ok || len(digits) < 2 || digits[0] != '-' || digits[1] == '0' && len(digits) > 2 {
		return 0, false
	}
	var n uint64
	for i := 1; i < len(digits); i++ {
		d := uint64(digits[i] - '0')
		if d > 9 || n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// appendID appends the text of the id an entry holds.
func (c *Collection) appendID(b, text []byte, num uint64) []byte {
	if len(text) > 0 {
		return append(b, text...)
	}
	return strconv.AppendUint(append(append(b, c.name...), '-'), num, 10)
}

// idString returns the text of the id an entry holds.
func (c *Collection) idString(text []byte, num uint64) string {
	if len(text) > 0 {
		return string(text)
	}
	var buf [48]byte
	return string(c.appendID(buf[:0], nil, num))
}

// reserveLocked returns the index of a chunk with room for size more bytes.
// Chunks grow geometrically from minChunk to maxChunk; an entry bigger than
// the next chunk gets one of its own size.
func (c *Collection) reserveLocked(size int) int {
	k := len(c.slabs) - 1
	if k >= 0 && cap(c.slabs[k])-len(c.slabs[k]) >= size {
		return k
	}
	next := minChunk
	if k >= 0 {
		next = min(2*cap(c.slabs[k]), maxChunk)
	}
	c.slabs = append(c.slabs, make([]byte, 0, max(next, size)))
	return k + 1
}

// appendEntryLocked writes an entry for id and rec and returns where it is
// and its size. An empty id stands for the generated id name-seq. A given
// id of the generated form raises the sequence to its number, so no later
// generated id lands on it, whether the id came from an insert, a journal
// replay or a snapshot restore.
func (c *Collection) appendEntryLocked(id string, seq uint64, rec []byte) (p uint64, size int) {
	num, numeric := seq, id == ""
	if !numeric {
		num, numeric = c.numericID(id)
		if numeric && num > c.seq {
			c.seq = num
		}
	}
	idSize := uvarintLen(uint64(len(id))) + len(id)
	if numeric {
		idSize = 1 + uvarintLen(num)
	}
	size = idSize + uvarintLen(uint64(len(rec))) + len(rec)
	k := c.reserveLocked(size)
	b := c.slabs[k]
	off := len(b)
	if numeric {
		b = binary.AppendUvarint(append(b, 0), num)
	} else {
		b = append(binary.AppendUvarint(b, uint64(len(id))), id...)
	}
	b = binary.AppendUvarint(b, uint64(len(rec)))
	c.slabs[k] = append(b, rec...)
	return uint64(k)<<32 | uint64(off), size
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// findLocked returns the table position of id and its slot, or the empty
// position where id would go and -1.
func (c *Collection) findLocked(id string) (pos, slot int) {
	num, numeric := c.numericID(id)
	pos, v := c.ids.Probe(maphash.String(c.seed, id), func(v uint32) bool {
		text, n, _, _ := c.entry(c.slots[v-1])
		if numeric {
			return len(text) == 0 && n == num
		}
		return string(text) == id
	})
	return pos, int(v) - 1
}

// hash is the hash of the id filed under id table cell v.
func (c *Collection) hash(v uint32) uint64 {
	text, num, _, _ := c.entry(c.slots[v-1])
	var buf [48]byte
	return maphash.Bytes(c.seed, c.appendID(buf[:0], text, num))
}

// rehashLocked rebuilds the id table at size cells from the slots.
func (c *Collection) rehashLocked(size int) {
	c.ids = make(oatable.Table, size)
	for s, p := range c.slots {
		if p != tombstone {
			c.ids.Place(c.hash(uint32(s+1)), uint32(s+1))
		}
	}
}

// putLocked files rec under id, as a new document at the end of the order or
// in place of the document filed under id, and keeps the indexes in step. An
// empty id stands for the generated id name-seq. It returns the id and its
// slot. Every write — Insert, Upsert, Update, journal replay — ends here. doc
// is the document rec encodes, which the caller holds (replay decoded it),
// for the indexes to read instead of decoding rec.
func (c *Collection) putLocked(id string, seq uint64, rec []byte, doc Doc) (string, int) {
	p, size := c.appendEntryLocked(id, seq, rec)
	if id == "" {
		id = c.idString(nil, seq)
	}
	if c.ids.Crowded(c.live+1, idLoad) {
		c.rehashLocked(oatable.Size(c.live+1, idLoad))
	}
	pos, slot := c.findLocked(id)
	if slot >= 0 {
		_, _, old, oldSize := c.entry(c.slots[slot])
		c.indexRemoveLocked(uint32(slot), id, old)
		c.slots[slot] = p
		c.liveBytes -= oldSize
		c.deadBytes += oldSize
	} else {
		slot = len(c.slots)
		c.slots = append(c.slots, p)
		c.ids[pos] = uint32(slot + 1)
		c.live++
	}
	c.liveBytes += size
	c.indexAddLocked(uint32(slot), id, rec, doc)
	c.compactLocked()
	return id, slot
}

// deleteLocked removes the documents with the given ids (absent ones are
// skipped) and returns how many went.
func (c *Collection) deleteLocked(ids []string) int {
	n := 0
	for _, id := range ids {
		pos, slot := c.findLocked(id)
		if slot < 0 {
			continue
		}
		_, _, rec, size := c.entry(c.slots[slot])
		c.indexRemoveLocked(uint32(slot), id, rec)
		c.ids.Unfile(pos, c.hash)
		c.slots[slot] = tombstone
		c.live--
		c.liveBytes -= size
		c.deadBytes += size
		n++
	}
	if len(c.slots)-c.live > c.live {
		c.renumberLocked()
	}
	c.compactLocked()
	return n
}

// compactLocked rewrites the live entries into fresh slabs in slot order
// once the dead bytes exceed both the live bytes and the current chunk.
func (c *Collection) compactLocked() {
	if len(c.slabs) == 0 || c.deadBytes <= c.liveBytes || c.deadBytes <= cap(c.slabs[len(c.slabs)-1]) {
		return
	}
	old := c.slabs
	c.slabs = nil
	for s, p := range c.slots {
		if p == tombstone {
			continue
		}
		e := rawEntry(old, p)
		k := c.reserveLocked(len(e))
		c.slots[s] = uint64(k)<<32 | uint64(len(c.slabs[k]))
		c.slabs[k] = append(c.slabs[k], e...)
	}
	c.deadBytes = 0
	c.compactions++
}

// renumberLocked drops the tombstones from the slots and rebuilds the id
// table and the indexes for the new slot numbers; live documents keep their
// order.
func (c *Collection) renumberLocked() {
	live := make([]uint64, 0, c.live)
	for _, p := range c.slots {
		if p != tombstone {
			live = append(live, p)
		}
	}
	c.slots = live
	c.rehashLocked(oatable.Size(c.live, idLoad))
	for path := range c.hashIx {
		ix := newHashIndex(path)
		c.eachLocked(ix.add)
		c.hashIx[path] = ix
	}
	for path := range c.geoIx {
		ix := newGeoIndex(path)
		c.eachLocked(ix.add)
		c.geoIx[path] = ix
	}
	c.renumberings++
}

// eachLocked hands fn every document, decoded, in insertion order.
func (c *Collection) eachLocked(fn func(slot uint32, d Doc)) {
	for s, p := range c.slots {
		if p != tombstone {
			text, num, rec, _ := c.entry(p)
			fn(uint32(s), c.decode(c.idString(text, num), rec))
		}
	}
}
