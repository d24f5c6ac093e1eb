package docstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wal"
)

func openDurable(t *testing.T, dir string) (*Store, *RecoveryInfo) {
	t.Helper()
	s, info, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	return s, info
}

func docField(t *testing.T, s *Store, coll, id, field string) any {
	t.Helper()
	d, err := s.Collection(coll).Get(id)
	if err != nil {
		t.Fatalf("Get %s/%s: %v", coll, id, err)
	}
	return d[field]
}

func TestDurableRoundTripAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, info := openDurable(t, dir)
	if info.Replayed != 0 || info.SnapshotLSN != 0 {
		t.Fatalf("fresh dir recovery: %+v", info)
	}
	users := s.Collection("users")
	if err := users.CreateIndex("name"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	if _, err := users.Insert(Doc{"_id": "u1", "name": "ada", "n": 1}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	genID, err := users.Insert(Doc{"name": "grace"})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := users.Update(Doc{"_id": "u1"}, Doc{"$set": Doc{"n": 2}}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if _, err := users.Upsert(Doc{"name": "lin"}, Doc{"name": "lin", "n": 7}); err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	if _, err := users.Insert(Doc{"_id": "gone"}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if n, err := users.Delete(Doc{"_id": "gone"}); err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	// An item with an accelerometer window under a generated id: the journal
	// holds the caller's document and the id beside it, marshalled before
	// Insert returns, so the caller's later edits do not reach it.
	item := itemDoc(7)
	wantRaw := item["raw"]
	itemID, err := s.Collection("items").Insert(item)
	if err != nil {
		t.Fatalf("Insert item: %v", err)
	}
	item["raw"] = "edited after insert"
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, info := openDurable(t, dir)
	defer s2.Close()
	if info.Replayed == 0 {
		t.Fatalf("nothing replayed: %+v", info)
	}
	if got := docField(t, s2, "users", "u1", "n"); got != float64(2) && got != 2 {
		t.Fatalf("u1.n = %v (%T), want 2", got, got)
	}
	if got := docField(t, s2, "users", genID, "name"); got != "grace" {
		t.Fatalf("%s.name = %v, want grace", genID, got)
	}
	if got := docField(t, s2, "items", itemID, "raw"); got != wantRaw {
		t.Fatalf("%s.raw = %.60v…, want the window as inserted", itemID, got)
	}
	if got := docField(t, s2, "items", itemID, IDField); got != itemID {
		t.Fatalf("%s._id = %v after replay", itemID, got)
	}
	if _, err := s2.Collection("users").Get("gone"); err == nil {
		t.Fatal("deleted doc survived recovery")
	}
	// The hash index must be rebuilt and usable.
	hash, _ := s2.Collection("users").Indexes()
	if len(hash) != 1 || hash[0] != "name" {
		t.Fatalf("indexes = %v, want [name]", hash)
	}
	docs, err := s2.Collection("users").Find(Doc{"name": "lin"}, FindOpts{})
	if err != nil || len(docs) != 1 {
		t.Fatalf("Find lin = %v, %v", docs, err)
	}
	// Fresh generated ids must not collide with recovered ones.
	id2, err := s2.Collection("users").Insert(Doc{"name": "post"})
	if err != nil {
		t.Fatalf("post-recovery Insert: %v", err)
	}
	if id2 == genID {
		t.Fatalf("generated id %q collided after recovery", id2)
	}
}

func TestDurableCrashKeepsSyncedMutations(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	if _, err := s.Collection("ctx").Insert(Doc{"_id": "c1", "v": "synced"}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Not synced: may or may not survive the crash.
	if _, err := s.Collection("ctx").Insert(Doc{"_id": "c2", "v": "racing"}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	s.Crash()

	s2, _ := openDurable(t, dir)
	defer s2.Close()
	if got := docField(t, s2, "ctx", "c1", "v"); got != "synced" {
		t.Fatalf("synced doc lost: %v", got)
	}
	if _, err := s2.Collection("ctx").Get("c2"); err == nil {
		// Fine: group commit may have persisted it before the crash.
		t.Log("unsynced doc survived (persisted by group commit)")
	}
}

func TestDurableCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	for i := 0; i < 10; i++ {
		if _, err := s.Collection("c").Insert(Doc{"_id": fmt.Sprintf("d%d", i), "i": i}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := s.Collection("c").Insert(Doc{"_id": "after", "i": 99}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, info := openDurable(t, dir)
	defer s2.Close()
	if info.SnapshotLSN == 0 {
		t.Fatalf("no snapshot used: %+v", info)
	}
	if info.Replayed != 1 {
		t.Fatalf("replayed %d records on top of snapshot, want 1", info.Replayed)
	}
	if got := s2.Collection("c").Len(); got != 11 {
		t.Fatalf("len = %d, want 11", got)
	}
}

func TestDurableDropSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	if _, err := s.Collection("tmp").Insert(Doc{"_id": "x"}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	s.Drop("tmp")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, _ := openDurable(t, dir)
	defer s2.Close()
	for _, n := range s2.CollectionNames() {
		if n == "tmp" {
			t.Fatal("dropped collection resurrected")
		}
	}
}

func TestDurableTornJournalTailRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	if _, err := s.Collection("k").Insert(Doc{"_id": "keep"}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := s.Collection("k").Insert(Doc{"_id": "tail"}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Chop bytes off the single segment, tearing the last record.
	var seg string
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			seg = filepath.Join(dir, e.Name())
		}
	}
	if seg == "" {
		t.Fatal("no segment file found")
	}
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatalf("tear segment: %v", err)
	}

	s2, info := openDurable(t, dir)
	defer s2.Close()
	if !info.TruncatedTail {
		t.Fatalf("torn tail not reported: %+v", info)
	}
	if _, err := s2.Collection("k").Get("keep"); err != nil {
		t.Fatalf("intact record lost: %v", err)
	}
	if _, err := s2.Collection("k").Get("tail"); err == nil {
		t.Fatal("torn record replayed")
	}
}

func TestNonDurableStoreUnaffected(t *testing.T) {
	s := NewStore()
	if s.Durable() {
		t.Fatal("NewStore reported durable")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on non-durable store: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close on non-durable store: %v", err)
	}
	if _, err := s.Collection("a").Insert(Doc{"_id": "x"}); err != nil {
		t.Fatalf("Insert after no-op Close: %v", err)
	}
}

func TestDurableMutateAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Collection("a").Insert(Doc{"_id": "x"}); err == nil {
		t.Fatal("Insert after Close should surface the journal error")
	} else if !strings.Contains(err.Error(), wal.ErrClosed.Error()) {
		t.Fatalf("error %v does not wrap wal.ErrClosed", err)
	}
}

func TestDurableSharedMetrics(t *testing.T) {
	m := wal.NewMetrics(nil)
	dir := t.TempDir()
	s, _, err := OpenDurable(dir, DurableOptions{Metrics: m})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer s.Close()
	if _, err := s.Collection("a").Insert(Doc{"_id": "x"}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// storeJSON is the whole store as a snapshot would write it — collections,
// documents in insertion order, index definitions, id sequences — decoded
// so that two stores compare by content.
func storeJSON(t *testing.T, s *Store) any {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	var v any
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	return v
}

func TestUpdateIsAllOrNothingAndJournaledAsSuch(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	c := s.Collection("users")
	if err := c.CreateIndex("city"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	// The update below would set "a" on all three, but it also uses an
	// operator outside the language: it is refused before any document is
	// read.
	for _, d := range []Doc{
		{IDField: "u1", "group": "g", "n": 1},
		{IDField: "u2", "group": "g", "n": 2, "city": "Paris"},
		{IDField: "u3", "group": "g", "n": 3},
	} {
		if _, err := c.Insert(d); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	before := storeJSON(t, s)
	n, err := c.Update(Doc{"group": "g"}, Doc{"$set": Doc{"a": true}, "$inc": Doc{"n": 10}})
	if err == nil || n != 0 || !strings.Contains(err.Error(), `"$inc"`) {
		t.Fatalf("Update = %d, %v; want 0 and an error naming $inc", n, err)
	}
	if after := storeJSON(t, s); !reflect.DeepEqual(after, before) {
		t.Fatalf("failed update changed the store\n got %v\nwant %v", after, before)
	}
	wantIDs(t, mustFind(t, c, Doc{"city": "Paris"}), "u2") // and the index still finds it
	// One that succeeds everywhere goes through, to show the journal is live.
	if n, err := c.Update(Doc{"group": "g"}, Doc{"$set": Doc{"n": 10}}); err != nil || n != 3 {
		t.Fatalf("Update = %d, %v; want 3", n, err)
	}
	want := storeJSON(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, info := openDurable(t, dir)
	defer s2.Close()
	if info.Replayed != 5 { // index, three inserts, one update: the failed one left no record
		t.Fatalf("replayed %d records, want 5", info.Replayed)
	}
	if got := storeJSON(t, s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered store differs from memory\n got %v\nwant %v", got, want)
	}
}

// TestCheckpointAfterReorganizationReopens checkpoints a collection whose
// slabs have been compacted and whose slots have been renumbered: the
// reopened store has the same documents in the same order, and goes on
// generating ids where the old one left off.
func TestCheckpointAfterReorganizationReopens(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	c := s.Collection("c")
	if err := c.CreateIndex("k"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	var last string
	for i := 0; i < 300; i++ {
		id, err := c.Insert(Doc{"k": i % 5, "n": i})
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		last = id
		if _, err := c.Insert(Doc{IDField: fmt.Sprintf("x%03d", i), "k": i % 3}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	for round := 0; round < 40; round++ {
		if _, err := c.Update(Doc{"k": round % 5}, Doc{"$set": Doc{"n": 1000 + round}}); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	for k, want := range []int{160, 160} {
		if n, err := c.Delete(Doc{"k": k}); err != nil || n != want {
			t.Fatalf("Delete k=%d = %d, %v; want %d", k, n, err, want)
		}
	}
	if compactions, renumberings := c.reorganizations(); compactions == 0 || renumberings == 0 {
		t.Fatalf("%d compactions, %d renumberings; the test needs both", compactions, renumberings)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	want := storeJSON(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, info := openDurable(t, dir)
	defer s2.Close()
	if info.SnapshotLSN == 0 || info.Replayed != 0 {
		t.Fatalf("recovery %+v, want the snapshot alone", info)
	}
	if got := storeJSON(t, s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store differs\n got %v\nwant %v", got, want)
	}
	id, err := s2.Collection("c").Insert(Doc{"k": 0})
	if err != nil {
		t.Fatalf("Insert after reopen: %v", err)
	}
	if next := fmt.Sprintf("c-%d", 301); last != "c-300" || id != next {
		t.Fatalf("generated %q after %q, want %q", id, last, next)
	}
}

// TestReopensParentCommitDirectories opens a journal-only directory and a
// snapshot-plus-tail directory written by an earlier commit of the store
// (testdata/parent_*: inserts with and without ids, nested values, $set
// updates by id and by an indexed field, upserts that replace and insert,
// deletes, a dropped collection, both index kinds) and expects the
// documents, order, indexes and sequences that commit itself recovered from
// them (*.want.json).
func TestReopensParentCommitDirectories(t *testing.T) {
	for _, name := range []string{"parent_journal", "parent_snapshot"} {
		dir := t.TempDir() // opening appends to the journal; keep testdata as it is
		files, err := os.ReadDir(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join("testdata", name, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wantRaw, err := os.ReadFile(filepath.Join("testdata", name+".want.json"))
		if err != nil {
			t.Fatal(err)
		}
		var want any
		if err := json.Unmarshal(wantRaw, &want); err != nil {
			t.Fatal(err)
		}
		s, info := openDurable(t, dir)
		if info.Replayed == 0 || info.TruncatedTail || (name == "parent_snapshot") != (info.SnapshotLSN > 0) {
			t.Fatalf("%s: recovery %+v", name, info)
		}
		if got := storeJSON(t, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s reopened differently\n got %v\nwant %v", name, got, want)
		}
		// The recovered indexes answer queries.
		wantIDs(t, mustFind(t, s.Collection("users"), Doc{"city": "Paris"}), "alice")
		wantIDs(t, mustFind(t, s.Collection("users"), Doc{"loc": Doc{"$near": Doc{"lat": 52.5, "lon": 13.4, "$maxDistance": 5000.0}}}), "users-1")
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestJournalWithRemovedOperatorRefusesToOpen: a journaled update whose
// query or spec uses an operator outside the language cannot be replayed to
// the state it once meant, so the open fails, naming the record and the
// operator, instead of recovering something else.
func TestJournalWithRemovedOperatorRefusesToOpen(t *testing.T) {
	for _, tc := range []struct{ record, op string }{
		{`{"op":"update","c":"users","q":{"_id":"u1"},"u":{"$inc":{"n":1}}}`, "$inc"},
		{`{"op":"update","c":"users","q":{"_id":"u1"},"u":{"$set":{"a":1},"$push":{"tags":"x"}}}`, "$push"},
		{`{"op":"update","c":"users","q":{"_id":"u1"},"u":{"$unset":{"n":true}}}`, "$unset"},
		{`{"op":"update","c":"users","q":{"n":{"$gte":1}},"u":{"$set":{"a":1}}}`, "$gte"},
		{`{"op":"update","c":"users","q":{"$or":[{"n":1}]},"u":{"$set":{"a":1}}}`, "$or"},
	} {
		dir := t.TempDir()
		l, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []string{
			`{"op":"hashix","c":"users","path":"n"}`,
			`{"op":"insert","c":"users","doc":{"_id":"u1","n":1}}`,
			tc.record,
		} {
			if err := l.Append([]byte(rec)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		s, _, err := OpenDurable(dir, DurableOptions{})
		if err == nil {
			s.Close()
			t.Fatalf("%s: journal opened", tc.op)
		}
		if msg := err.Error(); !strings.Contains(msg, "record 3") || !strings.Contains(msg, fmt.Sprintf("%q", tc.op)) {
			t.Errorf("%s: OpenDurable = %v, want an error naming record 3 and %q", tc.op, err, tc.op)
		}
	}
}
