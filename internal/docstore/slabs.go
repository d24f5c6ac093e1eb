package docstore

import (
	"encoding/binary"
	"hash/maphash"
	"strconv"
)

// Collections at rest
//
// A collection keeps no Go object per document. Its documents live in three
// pointer-free structures, so the collector marks a handful of chunks, not
// anything per document, and a collection costs the bytes it stores:
//
//	slabs  append-only []byte chunks of entries:
//	       uvarint(len id) id uvarint(len rec) rec
//	slots  []uint64 in insertion order, each chunk<<32 | offset of the
//	       document's current entry, or tombstone once it is deleted
//	ids    an open-addressed table (table.go) from id to slot+1, compared
//	       against the id bytes in the slab
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

const (
	minChunk  = 4 << 10
	maxChunk  = 1 << 20
	tombstone = ^uint64(0)
)

// splitEntry parses the entry at the start of b.
func splitEntry(b []byte) (id, rec []byte, size int) {
	n, k := binary.Uvarint(b)
	id = b[k : k+int(n)]
	m, k2 := binary.Uvarint(b[k+int(n):])
	start := k + int(n) + k2
	end := start + int(m)
	return id, b[start:end:end], end
}

// entry reads the entry a slot points at.
func (c *Collection) entry(p uint64) (id, rec []byte, size int) {
	return splitEntry(c.slabs[p>>32][uint32(p):])
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
// and its size. An empty id stands for the generated id name-seq, which is
// formatted straight into the slab.
func (c *Collection) appendEntryLocked(id string, seq uint64, rec []byte) (p uint64, size int) {
	idLen := len(id)
	if id == "" {
		idLen = len(c.name) + 2
		for v := seq; v >= 10; v /= 10 {
			idLen++
		}
	}
	size = uvarintLen(idLen) + idLen + uvarintLen(len(rec)) + len(rec)
	k := c.reserveLocked(size)
	b := c.slabs[k]
	off := len(b)
	b = binary.AppendUvarint(b, uint64(idLen))
	if id == "" {
		b = strconv.AppendUint(append(append(b, c.name...), '-'), seq, 10)
	} else {
		b = append(b, id...)
	}
	b = binary.AppendUvarint(b, uint64(len(rec)))
	c.slabs[k] = append(b, rec...)
	return uint64(k)<<32 | uint64(off), size
}

func uvarintLen(v int) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// findLocked returns the table position of id and its slot, or the empty
// position where id would go and -1.
func (c *Collection) findLocked(id string) (pos, slot int) {
	pos, v := c.ids.probe(maphash.String(c.seed, id), func(v uint32) bool {
		got, _, _ := c.entry(c.slots[v-1])
		return string(got) == id
	})
	return pos, int(v) - 1
}

// hash is the hash of the id filed under id table cell v.
func (c *Collection) hash(v uint32) uint64 {
	id, _, _ := c.entry(c.slots[v-1])
	return maphash.Bytes(c.seed, id)
}

// rehashLocked rebuilds the id table at size cells from the slots.
func (c *Collection) rehashLocked(size int) {
	c.ids = make(table, size)
	for s, p := range c.slots {
		if p != tombstone {
			c.ids.place(c.hash(uint32(s+1)), uint32(s+1))
		}
	}
}

// putLocked files rec under id, as a new document at the end of the order or
// in place of the document filed under id, and keeps the indexes in step. An
// empty id stands for the generated id name-seq. It returns the id. Every
// write — Insert, Upsert, Update, journal replay — ends here.
func (c *Collection) putLocked(id string, seq uint64, rec []byte) string {
	p, size := c.appendEntryLocked(id, seq, rec)
	if id == "" {
		gen, _, _ := c.entry(p)
		id = string(gen)
	}
	if c.ids.crowded(c.live+1, idLoad) {
		c.rehashLocked(tableSize(c.live+1, idLoad))
	}
	pos, slot := c.findLocked(id)
	if slot >= 0 {
		_, old, oldSize := c.entry(c.slots[slot])
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
	c.indexAddLocked(uint32(slot), id, rec)
	c.compactLocked()
	return id
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
		_, rec, size := c.entry(c.slots[slot])
		c.indexRemoveLocked(uint32(slot), id, rec)
		c.ids.unfile(pos, c.hash)
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
		b := old[p>>32][uint32(p):]
		_, _, size := splitEntry(b)
		k := c.reserveLocked(size)
		c.slots[s] = uint64(k)<<32 | uint64(len(c.slabs[k]))
		c.slabs[k] = append(c.slabs[k], b[:size]...)
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
	c.rehashLocked(tableSize(c.live, idLoad))
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
			id, rec, _ := c.entry(p)
			fn(uint32(s), c.decode(string(id), rec))
		}
	}
}
