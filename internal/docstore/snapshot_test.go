package docstore

import (
	"bytes"
	"strings"
	"testing"
)

func populated(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	users := s.Collection("users")
	if err := users.CreateIndex("city"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	if err := users.CreateGeoIndex("loc"); err != nil {
		t.Fatalf("CreateGeoIndex: %v", err)
	}
	docs := []Doc{
		{IDField: "alice", "city": "Paris", "loc": Doc{"lat": 48.85, "lon": 2.35}, "age": 30},
		{IDField: "bob", "city": "Bordeaux", "loc": Doc{"lat": 44.83, "lon": -0.57}, "tags": []any{"a", "b"}},
	}
	for _, d := range docs {
		if _, err := users.Insert(d); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if _, err := s.Collection("items").Insert(Doc{"n": 1}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := populated(t)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	names := restored.CollectionNames()
	if strings.Join(names, ",") != "items,users" {
		t.Fatalf("collections = %v", names)
	}
	users := restored.Collection("users")
	if users.Len() != 2 {
		t.Fatalf("users = %d docs", users.Len())
	}
	// Indexes were rebuilt and serve queries.
	hash, geoIx := users.Indexes()
	if len(hash) != 1 || hash[0] != "city" || len(geoIx) != 1 || geoIx[0] != "loc" {
		t.Fatalf("indexes = %v, %v", hash, geoIx)
	}
	got, err := users.Find(Doc{"city": "Paris"}, FindOpts{})
	if err != nil || len(got) != 1 || got[0][IDField] != "alice" {
		t.Fatalf("indexed find = %v, %v", got, err)
	}
	near, err := users.Find(Doc{"loc": Doc{"$near": Doc{"lat": 48.85, "lon": 2.35, "$maxDistance": 1000.0}}}, FindOpts{})
	if err != nil || len(near) != 1 {
		t.Fatalf("geo find = %v, %v", near, err)
	}
	// Numeric queries survive the JSON int->float64 round trip.
	aged, err := users.Find(Doc{"age": 30}, FindOpts{})
	if err != nil || len(aged) != 1 {
		t.Fatalf("numeric find = %v, %v", aged, err)
	}
	// Arrays survive.
	tagged, err := users.Find(Doc{"tags": "a"}, FindOpts{})
	if err != nil || len(tagged) != 1 {
		t.Fatalf("array find = %v, %v", tagged, err)
	}
}

func TestSnapshotRejectsGarbageAndVersions(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadSnapshot(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestEmptyStoreSnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := NewStore().WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if len(restored.CollectionNames()) != 0 {
		t.Fatal("phantom collections")
	}
}
