package docstore

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestInsertAssignsID(t *testing.T) {
	c := NewStore().Collection("users")
	id, err := c.Insert(Doc{"name": "alice"})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id == "" {
		t.Fatal("empty id")
	}
	got, err := c.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got["name"] != "alice" || got[IDField] != id {
		t.Fatalf("Get = %v", got)
	}
}

func TestInsertExplicitID(t *testing.T) {
	c := NewStore().Collection("users")
	id, err := c.Insert(Doc{IDField: "u1", "name": "alice"})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id != "u1" {
		t.Fatalf("id = %q, want u1", id)
	}
	if _, err := c.Insert(Doc{IDField: "u1"}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate insert err = %v, want ErrDuplicateID", err)
	}
}

func TestInsertRejectsBadID(t *testing.T) {
	c := NewStore().Collection("users")
	if _, err := c.Insert(Doc{IDField: 42}); err == nil {
		t.Fatal("accepted numeric _id")
	}
	if _, err := c.Insert(Doc{IDField: ""}); err == nil {
		t.Fatal("accepted empty _id")
	}
	if _, err := c.Insert(nil); err == nil {
		t.Fatal("accepted nil doc")
	}
}

func TestGetNotFound(t *testing.T) {
	c := NewStore().Collection("users")
	if _, err := c.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestInsertIsolation(t *testing.T) {
	// Mutating the caller's doc after Insert must not affect the store.
	c := NewStore().Collection("users")
	doc := Doc{"name": "alice", "tags": []any{"a"}}
	id, err := c.Insert(doc)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	doc["name"] = "mallory"
	doc["tags"].([]any)[0] = "evil"
	got, err := c.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got["name"] != "alice" || got["tags"].([]any)[0] != "a" {
		t.Fatalf("store saw caller mutation: %v", got)
	}
	// Mutating a returned doc must not affect the store either.
	got["name"] = "eve"
	again, err := c.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if again["name"] != "alice" {
		t.Fatalf("store saw reader mutation: %v", again)
	}
}

func TestFindInsertionOrder(t *testing.T) {
	c := NewStore().Collection("events")
	for i := 0; i < 5; i++ {
		if _, err := c.Insert(Doc{"n": i}); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	docs, err := c.Find(Doc{}, FindOpts{})
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	if len(docs) != 5 {
		t.Fatalf("len = %d, want 5", len(docs))
	}
	for i, d := range docs {
		if n, _ := toFloat(d["n"]); int(n) != i {
			t.Fatalf("insertion order broken at %d: %v", i, d)
		}
	}
}

func TestFindSort(t *testing.T) {
	c := NewStore().Collection("scores")
	for i, v := range []int{3, 1, 2, 1} {
		if _, err := c.Insert(Doc{IDField: fmt.Sprint(i), "v": v}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	asc, err := c.Find(Doc{}, FindOpts{SortBy: "v"})
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	// Ascending, and stable: equal values keep insertion order.
	if got := ids(asc); !slices.Equal(got, []string{"1", "3", "2", "0"}) {
		t.Fatalf("sorted ids = %v, want [1 3 2 0]", got)
	}
}

func TestUpdateSetIncPush(t *testing.T) {
	c := NewStore().Collection("users")
	id, err := c.Insert(Doc{"name": "alice", "visits": 1, "tags": []any{"a"}})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// $inc and $push are not in the language: a spec using them is refused
	// whole, its $set included.
	for _, op := range []string{"$inc", "$push"} {
		n, err := c.Update(Doc{"name": "alice"}, Doc{"$set": Doc{"city": "Lyon"}, op: Doc{"visits": 2}})
		if err == nil || n != 0 || !strings.Contains(err.Error(), fmt.Sprintf("%q", op)) {
			t.Fatalf("Update with %s = %d, %v; want 0 and an error naming it", op, n, err)
		}
	}
	n, err := c.Update(Doc{"name": "alice"}, Doc{"$set": Doc{"city": "Paris", "visits": 3, "tags": []any{"a", "b"}}})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if n != 1 {
		t.Fatalf("updated %d, want 1", n)
	}
	d, err := c.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	want := Doc{IDField: id, "name": "alice", "city": "Paris", "visits": 3, "tags": []any{"a", "b"}}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("Get = %v, want %v", d, want)
	}
}

func TestUpdateUnset(t *testing.T) {
	// $unset is not in the language: refused by name, the document kept.
	c := NewStore().Collection("users")
	id, err := c.Insert(Doc{"a": 1, "b": Doc{"c": 2}})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if n, err := c.Update(Doc{}, Doc{"$unset": Doc{"b": true}}); err == nil || n != 0 || !strings.Contains(err.Error(), `"$unset"`) {
		t.Fatalf("Update($unset) = %d, %v; want 0 and an error naming $unset", n, err)
	}
	// $set of a dotted name sets that name, not a path into b.
	if _, err := c.Update(Doc{}, Doc{"$set": Doc{"b.c": 3}}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	d, err := c.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if want := (Doc{IDField: id, "a": 1, "b": Doc{"c": 2}, "b.c": 3}); !reflect.DeepEqual(d, want) {
		t.Fatalf("Get = %v, want %v", d, want)
	}
}

func TestUpdateErrors(t *testing.T) {
	c := NewStore().Collection("users")
	if _, err := c.Insert(Doc{"a": "str"}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := c.Update(Doc{}, Doc{}); err == nil {
		t.Fatal("accepted empty update")
	}
	if _, err := c.Update(Doc{}, Doc{"$set": Doc{IDField: "x"}}); err == nil {
		t.Fatal("accepted $set of _id")
	}
	if _, err := c.Update(Doc{}, Doc{"$set": 1}); err == nil {
		t.Fatal("accepted non-object $set")
	}
	if _, err := c.Update(Doc{}, Doc{"$set": Doc{" ": 1}}); err == nil {
		t.Fatal("accepted blank field name")
	}
	if _, err := c.Update(Doc{}, Doc{"$frobnicate": Doc{"a": 1}}); err == nil {
		t.Fatal("accepted unknown operator")
	}
	if _, err := c.Update(Doc{}, Doc{"a": 1}); err == nil {
		t.Fatal("accepted a replacement document as an update")
	}
}

func TestUpsertInsertsThenReplaces(t *testing.T) {
	c := NewStore().Collection("loc")
	id1, err := c.Upsert(Doc{"user": "alice"}, Doc{"user": "alice", "city": "Bordeaux"})
	if err != nil {
		t.Fatalf("Upsert insert: %v", err)
	}
	id2, err := c.Upsert(Doc{"user": "alice"}, Doc{"user": "alice", "city": "Paris"})
	if err != nil {
		t.Fatalf("Upsert replace: %v", err)
	}
	if id1 != id2 {
		t.Fatalf("upsert changed identity: %q vs %q", id1, id2)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	d, err := c.Get(id1)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if d["city"] != "Paris" {
		t.Fatalf("city = %v, want Paris", d["city"])
	}
}

func TestDelete(t *testing.T) {
	c := NewStore().Collection("users")
	for _, city := range []string{"Paris", "Paris", "Bordeaux"} {
		if _, err := c.Insert(Doc{"city": city}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	n, err := c.Delete(Doc{"city": "Paris"})
	if err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if n != 2 {
		t.Fatalf("deleted %d, want 2", n)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	wantIDs(t, mustFind(t, c, nil), "users-3")
}

func TestStoreCollections(t *testing.T) {
	s := NewStore()
	a := s.Collection("a")
	if got := s.Collection("a"); got != a {
		t.Fatal("Collection not idempotent")
	}
	s.Collection("b")
	names := s.CollectionNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	s.Drop("a")
	if names := s.CollectionNames(); len(names) != 1 || names[0] != "b" {
		t.Fatalf("names after drop = %v", names)
	}
	if s.Collection("a").Len() != 0 {
		t.Fatal("dropped collection retained documents")
	}
}

func TestUpdateCannotChangeID(t *testing.T) {
	c := NewStore().Collection("users")
	id, err := c.Insert(Doc{"name": "alice"})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := c.Update(Doc{}, Doc{"$set": Doc{"_id": "hacked"}}); err == nil {
		t.Fatal("update targeting _id accepted")
	}
	if _, err := c.Get(id); err != nil {
		t.Fatalf("document lost: %v", err)
	}
}

func TestFindInvalidQuery(t *testing.T) {
	c := NewStore().Collection("x")
	if _, err := c.Find(Doc{"$bogus": 1}, FindOpts{}); err == nil || !strings.Contains(err.Error(), `unsupported operator "$bogus"`) {
		t.Fatalf("err = %v", err)
	}
}
