// Package docstore is an in-memory document database standing in for the
// MongoDB instance the SenSocial server uses to store user registrations,
// OSN friendship graphs and latest geographic locations (paper §4, "Data
// Storage and Querying").
//
// It speaks the part of MongoDB's language the server uses: queries of
// top-level field equality and $near (query.go), $set updates (update.go),
// secondary hash indexes, and geospatial queries backed by a grid index —
// the paper specifically calls out MongoDB's native geospatial querying
// ("fast return of nearby users or those located within a certain area")
// as the feature SenSocial multicast streams rely on.
package docstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
	"sync"

	"repro/internal/oatable"
	"repro/internal/wal"
)

// IDField is the reserved document identity field.
const IDField = "_id"

// Doc is a JSON-like document: values are nil, bool, numbers, strings,
// []any, or nested map[string]any.
type Doc = map[string]any

// ErrNotFound is returned by operations targeting a document that does not
// exist.
var ErrNotFound = errors.New("docstore: document not found")

// ErrDuplicateID is returned when inserting a document whose _id already
// exists in the collection.
var ErrDuplicateID = errors.New("docstore: duplicate _id")

// idError is the error of a Get that misses (cause ErrNotFound) or an
// Insert of a taken id (cause ErrDuplicateID). Its message is formatted
// only when asked for: registering a new user meets a miss every time, and
// nothing on that path reads the text.
type idError struct {
	coll, id string
	cause    error
}

func (e *idError) Error() string {
	if e.cause == ErrNotFound {
		return fmt.Sprintf("docstore: get %q from %q: %v", e.id, e.coll, e.cause)
	}
	return fmt.Sprintf("docstore: insert into %q: id %q: %v", e.coll, e.id, e.cause)
}

func (e *idError) Unwrap() error { return e.cause }

// Store is a set of named collections. A store opened with OpenDurable
// additionally journals every mutation to a write-ahead log (see
// durable.go); NewStore stores are purely in-memory.
type Store struct {
	mu          sync.RWMutex
	collections map[string]*Collection

	// cpMu serializes mutations against Checkpoint on durable stores:
	// mutators hold it shared around apply+journal, Checkpoint holds it
	// exclusive so the serialized snapshot matches the captured LSN.
	cpMu    sync.RWMutex
	journal *wal.Log // nil on non-durable stores; set once before sharing
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{collections: make(map[string]*Collection)}
}

// Collection returns the named collection, creating it if needed. A
// lookup shares the store's lock; only creating one takes it exclusively.
func (s *Store) Collection(name string) *Collection {
	s.mu.RLock()
	c, ok := s.collections[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok = s.collections[name]; !ok {
		c = newCollection(name)
		c.store = s
		s.collections[name] = c
	}
	return c
}

// CollectionNames returns the names of all collections, sorted.
func (s *Store) CollectionNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.collections))
	for n := range s.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Footprint returns how many documents the store holds and the bytes its
// collections keep for them: the entry bytes written to slabs (live, or
// superseded and not yet compacted away), the slots, the id tables, and the
// dictionaries' chunks and tables. Go's own overhead, the unused tail of
// each slab chunk and the field names are left out.
func (s *Store) Footprint() (docs, bytes int) {
	s.mu.RLock()
	colls := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		colls = append(colls, c)
	}
	s.mu.RUnlock()
	for _, c := range colls {
		c.mu.RLock()
		docs += c.live
		bytes += c.liveBytes + c.deadBytes + 8*cap(c.slots) + 4*len(c.ids)
		c.mu.RUnlock()
		c.keys.mu.RLock()
		bytes += dictChunk*len(c.keys.vals) + 4*len(c.keys.cells)
		c.keys.mu.RUnlock()
	}
	return docs, bytes
}

// Drop removes a collection and all its documents.
func (s *Store) Drop(name string) {
	durable := s.journal != nil
	if durable {
		s.cpMu.RLock()
		defer s.cpMu.RUnlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.collections[name]
	if !ok {
		return
	}
	delete(s.collections, name)
	if durable {
		// A handle kept past the drop journals the dictionary afresh, so
		// replay recreates the collection it writes to.
		c.mu.Lock()
		c.logged = dictMark{}
		c.mu.Unlock()
		_ = s.journal.Append(wal.AppendText([]byte{formatVersion, opDrop}, name))
	}
}

// Collection is an ordered set of documents keyed by _id. A document is
// held as one encoded record (record.go) in the collection's slabs
// (slabs.go); every Doc handed out is decoded fresh, so callers can never
// reach stored state.
type Collection struct {
	name  string
	store *Store   // owning store, for the journal; nil in isolated tests
	keys  keyTable // field names and short strings the records refer to; has its own lock
	seed  maphash.Seed

	mu        sync.RWMutex
	slabs     [][]byte      // append-only chunks of entries
	slots     []uint64      // insertion order: where each document's entry is, or tombstone
	ids       oatable.Table // open-addressed: id → slot+1
	live      int           // slots that are not tombstones
	liveBytes int           // entry bytes the slots point at
	deadBytes int           // entry bytes they no longer point at
	seq       uint64
	logged    dictMark // how much of keys the journal holds (durable.go)
	hashIx    map[string]*hashIndex
	geoIx     map[string]*geoIndex

	compactions, renumberings int // for tests
}

func newCollection(name string) *Collection {
	return &Collection{
		name:   name,
		seed:   maphash.MakeSeed(),
		hashIx: make(map[string]*hashIndex),
		geoIx:  make(map[string]*geoIndex),
	}
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Len returns the number of documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.live
}

// decode returns the document filed under id as a fresh Doc. Records are
// immutable, so it needs no lock once the caller has the record.
func (c *Collection) decode(id string, rec []byte) Doc {
	d, err := c.keys.decode(id, rec)
	if err != nil {
		// Every record was written by keys.encode; only a bug gets here.
		panic(fmt.Sprintf("docstore: %q in %q: %v", id, c.name, err))
	}
	return d
}

// Insert stores doc; the collection keeps no reference to it. If doc lacks
// an _id a fresh one is assigned. The (possibly generated) id is returned.
// A value that is not nil, a bool, a number, a string, a []any or a nested
// Doc is an error naming its field path and Go type.
func (c *Collection) Insert(doc Doc) (string, error) {
	if doc == nil {
		return "", fmt.Errorf("docstore: insert into %q: nil document", c.name)
	}
	pinned := c.pinJournal()
	defer pinned.unpin()
	rec, err := c.keys.encode(doc)
	if err != nil {
		return "", fmt.Errorf("docstore: insert into %q: %w", c.name, err)
	}
	defer release(rec)
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.idForLocked(doc)
	if err != nil {
		return "", err
	}
	id, slot := c.putLocked(id, c.seq, rec.b, doc)
	if pinned != nil {
		return id, c.logLocked(nil, slot)
	}
	return id, nil
}

// idForLocked returns doc's own _id, or "" having advanced the sequence
// putLocked generates an id from.
func (c *Collection) idForLocked(doc Doc) (string, error) {
	if v, ok := doc[IDField]; ok {
		id, ok := v.(string)
		if !ok || id == "" {
			return "", fmt.Errorf("docstore: insert into %q: _id must be a non-empty string, got %T", c.name, v)
		}
		if _, slot := c.findLocked(id); slot >= 0 {
			return "", &idError{coll: c.name, id: id, cause: ErrDuplicateID}
		}
		return id, nil
	}
	c.seq++
	return "", nil
}

// Get returns the document with the given id.
func (c *Collection) Get(id string) (Doc, error) {
	rec, ok := c.record(id)
	if !ok {
		return nil, &idError{coll: c.name, id: id, cause: ErrNotFound}
	}
	return c.decode(id, rec), nil
}

// record returns the record filed under id, if there is one.
func (c *Collection) record(id string) ([]byte, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, slot := c.findLocked(id)
	if slot < 0 {
		return nil, false
	}
	_, _, rec, _ := c.entry(c.slots[slot])
	return rec, true
}

// primaryKey returns id when query is exactly {_id: id} with a string id.
// The primary-key plan of such a query is its exact result, so it needs no
// compiled matcher and no decode to test candidates.
func primaryKey(query Doc) (string, bool) {
	if len(query) != 1 {
		return "", false
	}
	id, ok := query[IDField].(string)
	return id, ok
}

// FindOpts controls Find result shaping.
type FindOpts struct {
	// SortBy is a top-level field to order results by, ascending and stable;
	// empty keeps insertion order.
	SortBy string
}

// Find returns all documents matching query, shaped by opts.
func (c *Collection) Find(query Doc, opts FindOpts) ([]Doc, error) {
	if id, ok := primaryKey(query); ok {
		if rec, ok := c.record(id); ok {
			return []Doc{c.decode(id, rec)}, nil
		}
		return nil, nil
	}
	m, err := compileQuery(query)
	if err != nil {
		return nil, fmt.Errorf("docstore: find in %q: %w", c.name, err)
	}
	var out []Doc
	c.mu.RLock()
	c.scanLocked(query, m, func(_ string, d Doc) bool {
		out = append(out, d)
		return true
	})
	c.mu.RUnlock()

	if opts.SortBy != "" {
		sort.SliceStable(out, func(i, j int) bool {
			return compareValues(out[i][opts.SortBy], out[j][opts.SortBy]) < 0
		})
	}
	return out, nil
}

// Update applies the update spec to every document matching query and
// returns the number of documents modified. The spec is a $set (see
// update.go). It is all or nothing: if the spec cannot be applied to one
// matched document, no document changes, nothing is journaled and the
// count is 0.
func (c *Collection) Update(query, update Doc) (int, error) {
	m, err := compileQuery(query)
	if err != nil {
		return 0, fmt.Errorf("docstore: update in %q: %w", c.name, err)
	}
	pinned := c.pinJournal()
	defer pinned.unpin()
	up, err := compileUpdate(&c.keys, update)
	if err != nil {
		return 0, fmt.Errorf("docstore: update in %q: %w", c.name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	type write struct {
		id  string
		doc Doc
		rec *recBuf
	}
	var writes []write
	defer func() {
		for _, w := range writes {
			release(w.rec)
		}
	}()
	var failed error
	c.scanLocked(query, m, func(id string, d Doc) bool {
		up.apply(d)
		rec, err := c.keys.encode(d)
		if err != nil {
			failed = fmt.Errorf("docstore: update %q in %q: %w", id, c.name, err)
			return false
		}
		writes = append(writes, write{id, d, rec})
		return true
	})
	if failed != nil {
		return 0, failed
	}
	slots := make([]int, len(writes))
	for i, w := range writes {
		_, slots[i] = c.putLocked(w.id, 0, w.rec.b, w.doc)
	}
	if pinned != nil && len(writes) > 0 {
		return len(writes), c.logLocked(nil, slots...)
	}
	return len(writes), nil
}

// Upsert replaces the document matching query with doc, or inserts doc when
// nothing matches. Returns the id of the stored document. Values are
// restricted as for Insert.
func (c *Collection) Upsert(query Doc, doc Doc) (string, error) {
	key, byKey := primaryKey(query)
	var m matcher
	if !byKey {
		var err error
		if m, err = compileQuery(query); err != nil {
			return "", fmt.Errorf("docstore: upsert in %q: %w", c.name, err)
		}
	}
	pinned := c.pinJournal()
	defer pinned.unpin()
	rec, err := c.keys.encode(doc)
	if err != nil {
		return "", fmt.Errorf("docstore: upsert in %q: %w", c.name, err)
	}
	defer release(rec)
	c.mu.Lock()
	defer c.mu.Unlock()
	id := ""
	if byKey {
		if _, slot := c.findLocked(key); slot >= 0 {
			id = key
		}
	} else {
		c.scanLocked(query, m, func(match string, _ Doc) bool {
			id = match
			return false
		})
	}
	if id == "" {
		if id, err = c.idForLocked(doc); err != nil {
			return "", err
		}
	}
	id, slot := c.putLocked(id, c.seq, rec.b, doc)
	if pinned != nil {
		return id, c.logLocked(nil, slot)
	}
	return id, nil
}

// Delete removes every document matching query and returns how many were
// removed.
func (c *Collection) Delete(query Doc) (int, error) {
	m, err := compileQuery(query)
	if err != nil {
		return 0, fmt.Errorf("docstore: delete in %q: %w", c.name, err)
	}
	pinned := c.pinJournal()
	defer pinned.unpin()
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []string
	c.scanLocked(query, m, func(id string, _ Doc) bool {
		ids = append(ids, id)
		return true
	})
	n := c.deleteLocked(ids)
	if pinned != nil && n > 0 {
		op := binary.AppendUvarint([]byte{opDelete}, uint64(len(ids)))
		for _, id := range ids {
			op = wal.AppendText(op, id)
		}
		return n, c.logLocked(op)
	}
	return n, nil
}

// scanLocked decodes the plan's candidates in insertion order and hands
// visit each one the query matches, until visit returns false. visit must
// leave the collection as it is: the plan may be an index's own bucket.
func (c *Collection) scanLocked(query Doc, m matcher, visit func(id string, d Doc) bool) {
	try := func(p uint64) bool {
		text, num, rec, _ := c.entry(p)
		sid := c.idString(text, num)
		d := c.decode(sid, rec)
		return !m.match(d) || visit(sid, d)
	}
	plan, all := c.planLocked(query)
	if all {
		for _, p := range c.slots {
			if p != tombstone && !try(p) {
				return
			}
		}
		return
	}
	for _, s := range plan {
		if !try(c.slots[s]) {
			return
		}
	}
}

// planLocked chooses candidate slots for a query, trying in order: the
// primary key (a literal string _id names at most one document), a hash
// index (equality on an indexed field), a geo index ($near on a geo-indexed
// field), and last every slot (all is true). Candidates are ascending
// slots, which is insertion order. The exact matcher always runs
// afterwards, so the plan only needs to be a superset of the true result.
// The returned slice is shared, not a copy.
func (c *Collection) planLocked(query Doc) (slots []uint32, all bool) {
	if id, ok := query[IDField].(string); ok {
		if _, slot := c.findLocked(id); slot >= 0 {
			return []uint32{uint32(slot)}, false
		}
		return nil, false
	}
	for field, ix := range c.hashIx {
		if cond, ok := query[field]; ok && isPlainValue(cond) {
			return ix.get(hashKey(cond)), false
		}
	}
	for field, ix := range c.geoIx {
		if ops, ok := query[field].(map[string]any); ok {
			if center, radius, err := parseNear(ops["$near"]); err == nil {
				if slots, ok := ix.candidates(center, radius); ok {
					return slots, false
				}
			}
		}
	}
	return nil, true
}

// isPlainValue reports whether v is a literal (implicit $eq) rather than an
// operator object.
func isPlainValue(v any) bool {
	m, ok := v.(map[string]any)
	if !ok {
		return true
	}
	for k := range m {
		if strings.HasPrefix(k, "$") {
			return false
		}
	}
	return true
}
