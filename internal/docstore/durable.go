package docstore

// Durable stores journal every mutation to a write-ahead log and recover
// from snapshot + tail on open, giving the in-memory document database the
// restart story the paper's MongoDB deployment has for free.
//
// The journal and the snapshot hold what the collections hold: records,
// byte for byte, and the names and dictionary entries they refer to. Both
// are one stream of ops, read back by one function, apply:
//
//	ops  := formatVersion { op }
//	op   := 'c' text(collection) uvarint(seq)   the ops that follow are on this collection
//	      | 'k' uvarint(names) uvarint(count) { text(name) } uvarint(end) text(dictionary bytes)
//	      | 'p' entry                           put: a slab entry (slabs.go), the record as stored
//	      | 'd' uvarint(count) { text(id) }     delete
//	      | 'h' text(path) | 'g' text(path)     hash or geo index
//	      | 'x' text(collection)                drop
//	text := uvarint(len) bytes
//
// A dictionary op ('k') carries the names and dictionary bytes a
// collection's keyTable admitted past the name count and dictionary end it
// gives, and replay re-admits them there, so every key ref and dictionary
// offset in a record means what it meant when the record was written.
//
// A journal record is one mutation's resolved effect: a 'c', the
// dictionary growth since the collection's last record, then the records
// an Insert, Upsert or Update wrote, the ids a Delete matched, an index or
// a drop. Journaling decodes and marshals nothing, and replay compiles no
// query. Records are appended under the collection lock, so the journal
// order is the application order. Mutators pin the journal before they
// encode, so Checkpoint, which holds it exclusive, sees no dictionary
// grow. A snapshot writes each collection as a 'c', its whole dictionary,
// its indexes and its live records in insertion order; recovery applies
// the newest snapshot, then the journal tail. See docs/DURABILITY.md.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/wal"
)

// formatVersion is the first byte of every journal record and snapshot
// (wal.CheckVersion); version 1 was JSON.
const formatVersion = 2

const (
	opColl      = 'c'
	opDict      = 'k'
	opPut       = 'p'
	opDelete    = 'd'
	opHashIndex = 'h'
	opGeoIndex  = 'g'
	opDrop      = 'x'
)

// RecoveryInfo reports what OpenDurable reconstructed.
type RecoveryInfo struct {
	// SnapshotLSN is the journal position the loaded snapshot covered.
	SnapshotLSN uint64
	// Replayed is the number of tail records applied on top of it.
	Replayed int
	// TruncatedTail reports that a torn or corrupt journal tail was
	// discarded (crash mid-write; everything durable before it survived).
	TruncatedTail bool
}

// OpenDurable recovers (or creates) a journaled store in dir. Every
// mutation on the returned store is logged to the write-ahead log before
// the mutator returns; call Checkpoint periodically to compact, Close for
// a clean shutdown. opts is the journal's (its clock and metrics).
func OpenDurable(dir string, opts wal.Options) (*Store, *RecoveryInfo, error) {
	l, rec, err := wal.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	s := NewStore()
	if err := rec.Replay(s.apply); err != nil {
		_ = l.Close()
		return nil, nil, fmt.Errorf("docstore: durable open %s: %w", dir, err)
	}
	// The journal is attached only after replay, so replay's own mutations
	// are not re-logged.
	s.markLogged()
	s.journal = l
	return s, &RecoveryInfo{
		SnapshotLSN:   rec.SnapshotLSN,
		Replayed:      len(rec.Records),
		TruncatedTail: rec.TruncatedTail,
	}, nil
}

// Checkpoint writes a compacting snapshot of the whole store to the
// journal and retires segments the snapshot covers. No-op on non-durable
// stores. Mutations block for the duration (they pin cpMu shared).
func (s *Store) Checkpoint() error {
	if s.journal == nil {
		return nil
	}
	s.cpMu.Lock()
	defer s.cpMu.Unlock()
	if err := s.journal.Checkpoint(s.WriteSnapshot); err != nil {
		return err
	}
	s.markLogged()
	return nil
}

// markLogged records that the journal holds every collection's whole
// dictionary. The caller holds cpMu exclusive or has not shared the store,
// so no encoder is admitting to a dictionary.
func (s *Store) markLogged() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, c := range s.collections {
		c.logged = dictMark{len(c.keys.names), c.keys.end}
	}
}

// Sync blocks until every mutation so far is fsynced. No-op on
// non-durable stores.
func (s *Store) Sync() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Sync()
}

// Close flushes and closes the journal. The store stays readable; further
// mutations fail with wal.ErrClosed. No-op on non-durable stores.
func (s *Store) Close() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Close()
}

// Crash abandons un-flushed journal appends and closes abruptly,
// simulating process death for crash-recovery tests; on-disk state is
// whatever group commit had already persisted.
func (s *Store) Crash() {
	if s.journal != nil {
		s.journal.Crash()
	}
}

// Durable reports whether the store journals its mutations.
func (s *Store) Durable() bool { return s.journal != nil }

// pinJournal takes the shared checkpoint lock when the store is durable,
// returning the store to unpin (nil when not durable). Mutators pin before
// they encode and before taking c.mu, so Checkpoint can quiesce them; the
// order is always cpMu → s.mu/c.mu → wal internals.
func (c *Collection) pinJournal() *Store {
	s := c.store
	if s == nil || s.journal == nil {
		return nil
	}
	s.cpMu.RLock()
	return s
}

// unpin releases pinJournal's shared lock; safe on a nil receiver.
func (s *Store) unpin() {
	if s != nil {
		s.cpMu.RUnlock()
	}
}

// logLocked journals one mutation of this collection: its header, the
// dictionary growth since its last record, ops, then a put of the entry at
// each slot. Called with c.mu held and the journal pinned, after the
// mutation's records were encoded, so the growth holds everything they use.
func (c *Collection) logLocked(ops []byte, slots ...int) error {
	b := append(make([]byte, 0, 512), formatVersion) // room for an item with a window
	b, logged := c.keys.appendDict(c.appendHeaderLocked(b), c.logged)
	b = append(b, ops...)
	for _, slot := range slots {
		b = append(append(b, opPut), rawEntry(c.slabs, c.slots[slot])...)
	}
	if err := c.store.journal.Append(b); err != nil {
		return fmt.Errorf("docstore: journal %q: %w", c.name, err)
	}
	c.logged = logged
	return nil
}

func (c *Collection) appendHeaderLocked(b []byte) []byte {
	return binary.AppendUvarint(wal.AppendText(append(b, opColl), c.name), c.seq)
}

// WriteSnapshot writes the whole store to w as ops. A bufio.Writer keeps
// the first error w returns, and Flush returns it.
func (s *Store) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	_ = bw.WriteByte(formatVersion)
	for _, name := range s.CollectionNames() {
		c := s.Collection(name)
		c.mu.RLock()
		b, _ := c.keys.appendDict(c.appendHeaderLocked(nil), dictMark{})
		for _, p := range sortedKeys(c.hashIx) {
			b = wal.AppendText(append(b, opHashIndex), p)
		}
		for _, p := range sortedKeys(c.geoIx) {
			b = wal.AppendText(append(b, opGeoIndex), p)
		}
		_, _ = bw.Write(b)
		for _, p := range c.slots {
			if p != tombstone {
				_ = bw.WriteByte(opPut)
				_, _ = bw.Write(rawEntry(c.slabs, p))
			}
		}
		c.mu.RUnlock()
	}
	return bw.Flush()
}

// apply replays a journal record or a snapshot onto a store that is not
// shared yet, and fails, never panics, on bytes that do not parse. A put
// is applied only once its record decodes; whatever else an op that fails
// did is left for the caller to discard with the store.
func (s *Store) apply(b []byte) error {
	b, err := wal.CheckVersion(b, formatVersion)
	if err != nil {
		return err
	}
	r := recordReader{RecordReader: wal.NewRecordReader(b)}
	var c *Collection
	for r.Len() > 0 && !r.Bad() {
		op := r.Take(1)[0]
		switch {
		case op == opColl:
			c = s.Collection(r.Text())
			c.seq = max(c.seq, r.Uvarint())
		case op == opDrop:
			s.Drop(r.Text())
			c = nil
		case c == nil:
			r.Fail()
		case op == opDict:
			c.keys.applyDict(&r)
		case op == opPut:
			c.applyPut(&r)
		case op == opDelete:
			n := r.Uvarint()
			ids := make([]string, 0, min(n, uint64(r.Len()))) // an id takes at least a byte
			for ; n > 0 && !r.Bad(); n-- {
				ids = append(ids, r.Text())
			}
			c.mu.Lock()
			c.deleteLocked(ids)
			c.mu.Unlock()
		case op == opHashIndex || op == opGeoIndex:
			if c.createIndex(op, r.Text()) != nil {
				r.Fail()
			}
		default:
			r.Fail()
		}
	}
	if r.Bad() {
		return errors.New("corrupt ops")
	}
	return nil
}

// applyPut files the entry r holds next, if its record decodes.
func (c *Collection) applyPut(r *recordReader) {
	n := r.Uvarint()
	id := string(r.Take(n))
	if n == 0 {
		id = c.idString(nil, r.Uvarint())
	}
	rec := r.Take(r.Uvarint())
	d, err := c.keys.decode(id, rec)
	if err != nil || r.Bad() {
		r.Fail()
		return
	}
	c.mu.Lock()
	c.putLocked(id, 0, rec, d)
	c.mu.Unlock()
}

// dictMark is how much of a keyTable a journal or snapshot holds: its
// first names names and its dictionary up to end.
type dictMark struct {
	names int
	end   uint64
}

// appendDict appends a dictionary op for what t holds past from, if
// anything, and returns where t ends. The dictionary bytes are copied as
// they are, padding included (admitLocked).
func (t *keyTable) appendDict(b []byte, from dictMark) ([]byte, dictMark) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	to := dictMark{len(t.names), t.end}
	if to == from {
		return b, to
	}
	b = binary.AppendUvarint(binary.AppendUvarint(append(b, opDict), uint64(from.names)), uint64(to.names-from.names))
	for _, n := range t.names[from.names:] {
		b = wal.AppendText(b, n)
	}
	b = binary.AppendUvarint(binary.AppendUvarint(b, from.end), to.end-from.end)
	for off := from.end; off < to.end; {
		base := off / dictChunk * dictChunk
		next := min(to.end, base+dictChunk)
		b = append(b, t.vals[off/dictChunk][off-base:next-base]...)
		off = next
	}
	return b, to
}

// applyDict re-admits what appendDict wrote. It fails r unless the op
// starts where t ends and every entry is new and lands where it was.
func (t *keyTable) applyDict(r *recordReader) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.Uvarint() != uint64(len(t.names)) {
		r.Fail()
	}
	for n := r.Uvarint(); n > 0 && !r.Bad(); n-- {
		name := r.Text()
		if _, dup := t.refs[name]; dup {
			r.Fail()
		}
		t.addNameLocked(name)
	}
	if r.Uvarint() != t.end {
		r.Fail()
	}
	at, region := t.end, r.Take(r.Uvarint())
	for len(region) > 0 && !r.Bad() {
		size := uint64(1 + region[0])
		if region[0] == padMark {
			size = dictChunk - at%dictChunk
		}
		if size > uint64(len(region)) {
			r.Fail()
			break
		}
		if region[0] != padMark {
			_, h, dup := t.shape(region[1:size])
			if off, ok := t.admitLocked(string(region[1:size]), h); dup || !ok || off != at {
				r.Fail()
			}
		}
		at, region = at+size, region[size:]
	}
	if at != t.end {
		r.Fail()
	}
}
