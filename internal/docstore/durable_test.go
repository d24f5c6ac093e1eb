package docstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/race"
	"repro/internal/wal"
)

func openDurable(t *testing.T, dir string) (*Store, *RecoveryInfo) {
	t.Helper()
	s, info, err := OpenDurable(dir, wal.Options{})
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
	// A handle kept past a drop writes to a collection of that name again,
	// which replay recreates.
	kept := s.Collection("kept")
	if _, err := kept.Insert(Doc{"_id": "before", "v": "x"}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	s.Drop("kept")
	if _, err := kept.Insert(Doc{"_id": "after", "w": "y"}); err != nil {
		t.Fatalf("Insert through a dropped handle: %v", err)
	}
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
	wantIDs(t, mustFind(t, s2.Collection("kept"), nil), "after")
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
	s, _, err := OpenDurable(dir, wal.Options{Metrics: m})
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

// storeJSON is the whole store — collections, documents in insertion
// order, index definitions, id sequences — in the shape the store's JSON
// snapshots once had, decoded from JSON so that two stores compare by
// content (an int and the float64 of the same value compare equal).
func storeJSON(t *testing.T, s *Store) any {
	t.Helper()
	type collection struct {
		Name        string   `json:"name"`
		HashIndexes []string `json:"hash_indexes,omitempty"`
		GeoIndexes  []string `json:"geo_indexes,omitempty"`
		Docs        []Doc    `json:"docs"`
		Seq         uint64   `json:"seq,omitempty"`
	}
	file := struct {
		Version     int          `json:"version"`
		Collections []collection `json:"collections"`
	}{Version: 1}
	for _, name := range s.CollectionNames() {
		c := s.Collection(name)
		hash, geoPaths := c.Indexes()
		c.mu.RLock()
		seq := c.seq
		c.mu.RUnlock()
		file.Collections = append(file.Collections, collection{name, hash, geoPaths, mustFind(t, c, nil), seq})
	}
	raw, err := json.Marshal(file)
	if err != nil {
		t.Fatalf("marshal store: %v", err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode store: %v", err)
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
// snapshot-plus-tail directory written in this format (testdata/journal,
// testdata/snapshot: inserts with and without ids, nested values, $set
// updates by id and by an indexed field, upserts that replace and insert,
// deletes, a dropped collection, both index kinds) and expects the
// documents, order, indexes and sequences the JSON directories of an
// earlier commit recovered to from the same mutations (store.want.json).
// Those JSON directories (testdata/json_*) are refused, naming the format.
func TestReopensParentCommitDirectories(t *testing.T) {
	copyDir := func(name string) string {
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
		return dir
	}
	wantRaw, err := os.ReadFile(filepath.Join("testdata", "store.want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"journal", "snapshot"} {
		s, info := openDurable(t, copyDir(name))
		if info.Replayed == 0 || info.TruncatedTail || (name == "snapshot") != (info.SnapshotLSN > 0) {
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
	for _, name := range []string{"json_journal", "json_snapshot"} {
		s, _, err := OpenDurable(copyDir(name), wal.Options{})
		if err == nil {
			s.Close()
			t.Fatalf("%s opened", name)
		}
		if !strings.Contains(err.Error(), "format version 1 (JSON)") {
			t.Errorf("%s: OpenDurable = %v, want an error naming format version 1 (JSON)", name, err)
		}
	}
}

// everyKindDoc holds every kind a record knows: each Go number type, bools,
// nil, a dictionary string, an inline string, an accelerometer window
// stored as bit-packed integer arrays, nested documents, arrays, empty
// containers, and a point for the geo index.
func everyKindDoc(i int) Doc {
	return Doc{
		"int": i, "int32": int32(-i), "int64": int64(1)<<40 + int64(i),
		"uint": uint(i), "uint32": uint32(i), "uint64": uint64(1)<<63 + uint64(i),
		"float32": float32(i) / 4, "float64": float64(i) + 0.5,
		"yes": true, "no": false, "none": nil,
		"kind": fmt.Sprintf("k%d", i%4), "long": strings.Repeat("an inline string ", 3) + fmt.Sprint(i),
		"window": accelPayload(rand.New(rand.NewSource(int64(i)))),
		"nested": Doc{"a": Doc{"b": []any{i, "x", Doc{"c": nil}}}},
		"array":  []any{1, "two", 3.5, int64(4), []any{}, Doc{}},
		"empty":  Doc{},
		"loc":    Doc{"lat": 48.8 + float64(i)/100, "lon": 2.3 + float64(i)/100},
	}
}

// storedRecords lists the collection's entries in insertion order: each
// id as stored (text, or the number of a generated-form id) and the record
// bytes.
func storedRecords(c *Collection) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for _, p := range c.slots {
		if p != tombstone {
			text, num, rec, _ := c.entry(p)
			out = append(out, fmt.Sprintf("%q/%d/%x", text, num, rec))
		}
	}
	return out
}

// TestDurableRecordsByteIdenticalAcrossReopen takes every kind a record
// knows, under generated, given-numeric and text ids, through journal
// replay, snapshot plus tail, and a snapshot alone, and requires the
// reopened store to hold the very same record bytes and to give the same
// Get and Find answers, Go types included, indexed and $near queries too.
func TestDurableRecordsByteIdenticalAcrossReopen(t *testing.T) {
	queries := []Doc{
		nil,
		{"kind": "k1"}, // hash index
		{"int": 7},     // hash index, int key
		{"int64": int64(1)<<40 + 9},
		{"uint64": uint64(1)<<63 + 10},
		{"loc": Doc{"$near": Doc{"lat": 48.9, "lon": 2.4, "$maxDistance": 3000.0}}},
	}
	answers := func(c *Collection) (out [][]Doc) {
		for _, q := range queries {
			out = append(out, mustFind(t, c, q))
		}
		for _, d := range mustFind(t, c, nil) {
			got, err := c.Get(d[IDField].(string))
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			out = append(out, []Doc{got})
		}
		return out
	}
	for _, midCheckpoint := range []bool{false, true} {
		dir := t.TempDir()
		s, _ := openDurable(t, dir)
		c := s.Collection("items")
		for _, err := range []error{c.CreateIndex("kind"), c.CreateIndex("int"), c.CreateGeoIndex("loc")} {
			if err != nil {
				t.Fatal(err)
			}
		}
		insert := func(from, to int) {
			for i := from; i < to; i++ {
				d := everyKindDoc(i)
				switch i % 3 {
				case 1:
					d[IDField] = fmt.Sprintf("text-%d", i)
				case 2:
					d[IDField] = fmt.Sprintf("items-%d", 1000+i)
				}
				if _, err := c.Insert(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		mutate := func(round int) {
			if _, err := c.Update(Doc{"kind": fmt.Sprintf("k%d", round)}, Doc{"$set": Doc{"float64": 9.25, "short": "upd", "nested": Doc{"z": int64(round)}}}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Upsert(Doc{IDField: "text-1"}, everyKindDoc(100+round)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Upsert(Doc{"kind": "none"}, Doc{"kind": "none", "round": round}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Delete(Doc{"int": 3 + 10*round}); err != nil {
				t.Fatal(err)
			}
		}
		insert(0, 30)
		mutate(1)
		if midCheckpoint {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		insert(30, 40)
		mutate(2)
		wantRecords, wantAnswers := storedRecords(c), answers(c)
		for round := 0; round < 2; round++ {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			var info *RecoveryInfo
			s, info = openDurable(t, dir)
			if (info.SnapshotLSN > 0) != (midCheckpoint || round > 0) || (info.Replayed == 0) != (round > 0) {
				t.Fatalf("checkpoint %v, reopen %d: recovery %+v", midCheckpoint, round, info)
			}
			c = s.Collection("items")
			if got := storedRecords(c); !reflect.DeepEqual(got, wantRecords) {
				t.Fatalf("checkpoint %v, reopen %d: records differ\n got %v\nwant %v", midCheckpoint, round, got, wantRecords)
			}
			if got := answers(c); !reflect.DeepEqual(got, wantAnswers) {
				t.Fatalf("checkpoint %v, reopen %d: answers differ\n got %v\nwant %v", midCheckpoint, round, got, wantAnswers)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzJournalReplay hands OpenDurable arbitrary bytes as a journal record
// and as a snapshot. A journal or snapshot read from disk is outside
// input: the open must fail with an error, or recover a store whose every
// record decodes and which writes a snapshot that reads back to the same
// bytes. It must never panic.
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	s, _, err := OpenDurable(dir, wal.Options{})
	if err != nil {
		f.Fatal(err)
	}
	c := s.Collection("items")
	_ = c.CreateIndex("kind")
	_ = c.CreateGeoIndex("loc")
	for i := 0; i < 4; i++ {
		d := everyKindDoc(i)
		if i%2 == 1 {
			d[IDField] = fmt.Sprintf("text-%d", i)
		}
		if _, err := c.Insert(d); err != nil {
			f.Fatal(err)
		}
	}
	_, _ = c.Update(Doc{"kind": "k1"}, Doc{"$set": Doc{"short": "upd"}})
	_, _ = c.Delete(Doc{"kind": "k2"})
	s.Drop("gone")
	var snap bytes.Buffer
	if err := s.WriteSnapshot(&snap); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		f.Fatal(err)
	}
	_ = l.Close()
	for _, r := range rec.Records {
		f.Add(r, false)
	}
	f.Add(snap.Bytes(), true)
	f.Add([]byte(`{"op":"insert","c":"a","doc":{"_id":"x"}}`), false)

	f.Fuzz(func(t *testing.T, data []byte, snapshot bool) {
		dir := t.TempDir()
		l, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if snapshot {
			err = l.Checkpoint(func(w io.Writer) error { _, err := w.Write(data); return err })
		} else {
			err = l.Append(data)
		}
		if cerr := l.Close(); err != nil || cerr != nil {
			t.Fatal(err, cerr)
		}
		s, _, err := OpenDurable(dir, wal.Options{})
		if err != nil {
			return
		}
		defer s.Close()
		var a, b bytes.Buffer
		for _, name := range s.CollectionNames() {
			if _, err := s.Collection(name).Find(nil, FindOpts{}); err != nil {
				t.Fatalf("Find in %q: %v", name, err)
			}
		}
		if err := s.WriteSnapshot(&a); err != nil {
			t.Fatal(err)
		}
		again, err := ReadSnapshot(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("snapshot of a recovered store does not read back: %v", err)
		}
		if err := again.WriteSnapshot(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("snapshot read back differently\n got %x\nwant %x", b.Bytes(), a.Bytes())
		}
	})
}

// TestDurableInsertAllocs: a durable Insert journals the entry it stored,
// neither decoding the record nor marshalling the document, so it costs a
// the journal record's buffer beside what an in-memory Insert costs, where
// a decode alone would build the document's map and strings.
func TestDurableInsertAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops sync.Pool puts")
	}
	s, _ := openDurable(t, t.TempDir())
	defer s.Close()
	durable, memory := s.Collection("items"), NewStore().Collection("items")
	docs := make([]Doc, 64)
	for i := range docs {
		docs[i] = itemDoc(10*i + 7) // each with an accelerometer window
	}
	i := 0
	insert := func(c *Collection) func() {
		return func() {
			if _, err := c.Insert(docs[i%len(docs)]); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	for _, c := range []*Collection{durable, memory} {
		for j := 0; j < len(docs); j++ { // dictionary warm
			insert(c)()
		}
	}
	d, m := testing.AllocsPerRun(200, insert(durable)), testing.AllocsPerRun(200, insert(memory))
	if d > m+1 {
		t.Fatalf("durable Insert: %.1f allocations, in-memory %.1f; want at most 1 more", d, m)
	}
}
