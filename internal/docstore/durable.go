package docstore

// Durable stores journal every mutation to a write-ahead log and recover
// from snapshot + tail on open, giving the in-memory document database the
// restart story the paper's MongoDB deployment has for free.
//
// The journal records resolved effects, not raw requests, wherever request
// replay would be nondeterministic: Insert and Upsert log the caller's
// document beside the id it was stored under (marshalled before they
// return, so the caller may reuse the document), Delete logs the matched
// ids. Update logs
// the query and $set spec — the matched set and per-document application
// are order-independent, so replay reproduces the same state. Replay
// compiles a logged query and spec like any other, so a record holding an
// operator outside the language (query.go, update.go) fails the open,
// naming its record number and the operator. Records are appended under
// the collection lock, so the journal order equals the application order.
// Checkpoint serializes the whole store through the WAL's compacting
// snapshot; recovery loads the newest snapshot and replays the record
// tail. See docs/DURABILITY.md for the contract.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/vclock"
	"repro/internal/wal"
)

// DurableOptions tunes OpenDurable; the zero value is usable.
type DurableOptions struct {
	// Clock feeds the WAL's recovery-duration metric (defaults to real time).
	Clock vclock.Clock
	// Metrics shares WAL counters with the rest of the deployment.
	Metrics *wal.Metrics
}

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
// a clean shutdown.
func OpenDurable(dir string, opts DurableOptions) (*Store, *RecoveryInfo, error) {
	l, rec, err := wal.Open(dir, wal.Options{
		Clock:   opts.Clock,
		Metrics: opts.Metrics,
	})
	if err != nil {
		return nil, nil, err
	}
	s := NewStore()
	if rec.Snapshot != nil {
		loaded, err := ReadSnapshot(bytes.NewReader(rec.Snapshot))
		if err != nil {
			_ = l.Close()
			return nil, nil, fmt.Errorf("docstore: durable open %s: %w", dir, err)
		}
		s = loaded
	}
	for i, raw := range rec.Records {
		if err := s.applyJournalRecord(raw); err != nil {
			_ = l.Close()
			return nil, nil, fmt.Errorf("docstore: durable open %s: replay record %d: %w",
				dir, int(rec.SnapshotLSN)+i+1, err)
		}
	}
	// Attach the journal only after replay, so replay's own mutations are
	// not re-logged.
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
	return s.journal.Checkpoint(s.WriteSnapshot)
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

// Journal record ops.
const (
	opInsert    = "insert"
	opUpdate    = "update"
	opUpsert    = "upsert"
	opDelete    = "delete"
	opHashIndex = "hashix"
	opGeoIndex  = "geoix"
	opDrop      = "drop"
)

// journalRecord is one logged mutation (JSON payload of a WAL record).
type journalRecord struct {
	Op    string   `json:"op"`
	Coll  string   `json:"c,omitempty"`
	ID    string   `json:"id,omitempty"`
	IDs   []string `json:"ids,omitempty"`
	Doc   Doc      `json:"doc,omitempty"`
	Query Doc      `json:"q,omitempty"`
	Upd   Doc      `json:"u,omitempty"`
	Path  string   `json:"path,omitempty"`
}

// pinJournal takes the shared checkpoint lock when the store is durable,
// returning the store to unpin (nil when not durable). Mutators pin before
// taking c.mu so Checkpoint can quiesce them; the order is always
// cpMu → s.mu/c.mu → wal internals.
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

// logLocked journals one mutation of this collection. Called with c.mu
// held and the journal pinned, so journal order equals application order.
func (c *Collection) logLocked(r journalRecord) error {
	r.Coll = c.name
	return c.store.appendRecord(r)
}

// appendRecord marshals and appends one journal record.
func (s *Store) appendRecord(r journalRecord) error {
	buf, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("docstore: journal %s %q: %w", r.Op, r.Coll, err)
	}
	if err := s.journal.Append(buf); err != nil {
		return fmt.Errorf("docstore: journal %s %q: %w", r.Op, r.Coll, err)
	}
	return nil
}

// applyJournalRecord replays one logged mutation onto the store. The
// journal is not attached yet during replay, so nothing is re-logged.
func (s *Store) applyJournalRecord(raw []byte) error {
	var r journalRecord
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if r.Op == opDrop {
		s.Drop(r.Coll)
		return nil
	}
	c := s.Collection(r.Coll)
	switch r.Op {
	case opInsert:
		// The id is logged beside the document; journals written before
		// that carry it inside the document instead.
		if _, ok := r.Doc[IDField]; !ok && r.ID != "" && r.Doc != nil {
			r.Doc[IDField] = r.ID
		}
		if _, err := c.Insert(r.Doc); err != nil {
			return err
		}
	case opUpdate:
		if _, err := c.Update(r.Query, r.Upd); err != nil {
			return err
		}
	case opUpsert:
		rec, err := c.keys.encode(r.Doc)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.putLocked(r.ID, 0, rec.b, r.Doc)
		c.mu.Unlock()
		release(rec)
	case opDelete:
		c.mu.Lock()
		c.deleteLocked(r.IDs)
		c.mu.Unlock()
	case opHashIndex:
		return c.CreateIndex(r.Path)
	case opGeoIndex:
		return c.CreateGeoIndex(r.Path)
	default:
		return fmt.Errorf("unknown op %q", r.Op)
	}
	return nil
}

// seqValue reads the id-generation sequence for snapshots.
func (c *Collection) seqValue() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.seq
}
