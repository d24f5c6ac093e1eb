package docstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/race"
)

func TestHashIndexEquivalence(t *testing.T) {
	// Indexed and unindexed collections must return identical results.
	plain := NewStore().Collection("plain")
	indexed := NewStore().Collection("indexed")
	if err := indexed.CreateIndex("city"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	cities := []string{"Paris", "Bordeaux", "Lyon", "Toulouse"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		d := Doc{IDField: fmt.Sprintf("u%03d", i), "city": cities[rng.Intn(len(cities))], "n": i}
		if _, err := plain.Insert(d); err != nil {
			t.Fatalf("insert plain: %v", err)
		}
		if _, err := indexed.Insert(d); err != nil {
			t.Fatalf("insert indexed: %v", err)
		}
	}
	for _, city := range cities {
		q := Doc{"city": city}
		a := mustFind(t, plain, q)
		b := mustFind(t, indexed, q)
		if len(a) != len(b) {
			t.Fatalf("city %s: plain %d vs indexed %d", city, len(a), len(b))
		}
		seen := map[string]bool{}
		for _, d := range b {
			seen[d[IDField].(string)] = true
		}
		for _, d := range a {
			if !seen[d[IDField].(string)] {
				t.Fatalf("indexed missing %v", d[IDField])
			}
		}
	}
}

func TestHashIndexTracksUpdatesAndDeletes(t *testing.T) {
	c := NewStore().Collection("users")
	if err := c.CreateIndex("city"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	id, err := c.Insert(Doc{"name": "carol", "city": "Bordeaux"})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := c.Update(Doc{IDField: id}, Doc{"$set": Doc{"city": "Paris"}}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	wantIDs(t, mustFind(t, c, Doc{"city": "Paris"}), id)
	wantIDs(t, mustFind(t, c, Doc{"city": "Bordeaux"}))
	if _, err := c.Delete(Doc{IDField: id}); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	wantIDs(t, mustFind(t, c, Doc{"city": "Paris"}))
}

func TestCreateIndexOnPopulatedCollection(t *testing.T) {
	c := NewStore().Collection("users")
	for i := 0; i < 10; i++ {
		city := "Paris"
		if i%2 == 0 {
			city = "Lyon"
		}
		if _, err := c.Insert(Doc{"city": city}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := c.CreateIndex("city"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	if err := c.CreateIndex("city"); err != nil {
		t.Fatalf("CreateIndex twice: %v", err)
	}
	if got := len(mustFind(t, c, Doc{"city": "Paris"})); got != 5 {
		t.Fatalf("found %d, want 5", got)
	}
	hash, _ := c.Indexes()
	if len(hash) != 1 || hash[0] != "city" {
		t.Fatalf("Indexes = %v", hash)
	}
}

func TestCreateIndexValidation(t *testing.T) {
	c := NewStore().Collection("x")
	if err := c.CreateIndex(""); err == nil {
		t.Fatal("accepted empty index path")
	}
	if err := c.CreateGeoIndex(""); err == nil {
		t.Fatal("accepted empty geo index path")
	}
}

func TestGeoIndexEquivalence(t *testing.T) {
	// Geo-indexed $near must agree with a full scan.
	plain := NewStore().Collection("plain")
	indexed := NewStore().Collection("indexed")
	if err := indexed.CreateGeoIndex("loc"); err != nil {
		t.Fatalf("CreateGeoIndex: %v", err)
	}
	paris := geo.Point{Lat: 48.8566, Lon: 2.3522}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		pt := paris.Offset(rng.Float64()*40000, rng.Float64()*360)
		d := Doc{IDField: fmt.Sprintf("u%03d", i), "loc": Doc{"lat": pt.Lat, "lon": pt.Lon}}
		if _, err := plain.Insert(d); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if _, err := indexed.Insert(d); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	for _, radius := range []float64{500, 5000, 15000, 50000} {
		q := Doc{"loc": Doc{"$near": Doc{"lat": paris.Lat, "lon": paris.Lon, "$maxDistance": radius}}}
		a, b := mustFind(t, plain, q), mustFind(t, indexed, q)
		if len(a) != len(b) {
			t.Fatalf("radius %.0f: plain %d vs indexed %d", radius, len(a), len(b))
		}
	}
}

func TestGeoIndexTracksMovement(t *testing.T) {
	// The server updates user locations continuously; the geo index must
	// follow. This is the Figure 2 scenario at the storage layer.
	c := NewStore().Collection("users")
	if err := c.CreateGeoIndex("loc"); err != nil {
		t.Fatalf("CreateGeoIndex: %v", err)
	}
	id, err := c.Insert(Doc{"name": "carol", "loc": Doc{"lat": 44.8378, "lon": -0.5792}}) // Bordeaux
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	nearParis := Doc{"loc": Doc{"$near": Doc{"lat": 48.8566, "lon": 2.3522, "$maxDistance": 15000.0}}}
	wantIDs(t, mustFind(t, c, nearParis))
	// Carol travels to Paris.
	if _, err := c.Update(Doc{IDField: id}, Doc{"$set": Doc{"loc": Doc{"lat": 48.8566, "lon": 2.3522}}}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	wantIDs(t, mustFind(t, c, nearParis), id)
}

func TestGeoIndexHugeRadiusFallback(t *testing.T) {
	c := NewStore().Collection("users")
	if err := c.CreateGeoIndex("loc"); err != nil {
		t.Fatalf("CreateGeoIndex: %v", err)
	}
	if _, err := c.Insert(Doc{"loc": Doc{"lat": 48.85, "lon": 2.35}}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// A planetary radius triggers the full-walk fallback and still matches.
	q := Doc{"loc": Doc{"$near": Doc{"lat": 0.0, "lon": 0.0, "$maxDistance": 2.1e7}}}
	if got := len(mustFind(t, c, q)); got != 1 {
		t.Fatalf("matched %d, want 1", got)
	}
}

func TestIndexedFindKeepsInsertionOrder(t *testing.T) {
	c := NewStore().Collection("users")
	if err := c.CreateIndex("city"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if _, err := c.Insert(Doc{IDField: id, "city": "Paris", "n": 0}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// An update re-files a in the index; it must not move a behind b and c.
	if _, err := c.Update(Doc{IDField: "a"}, Doc{"$set": Doc{"n": 1}}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if got := ids(mustFind(t, c, Doc{"city": "Paris"})); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("Find = %v, want [a b c]", got)
	}

	// A planetary radius is answered without the grid; the answer is still
	// in insertion order, every time.
	if err := c.CreateGeoIndex("loc"); err != nil {
		t.Fatalf("CreateGeoIndex: %v", err)
	}
	var want []string
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("p%02d", (i*17)%40)
		loc := Doc{"lat": -60 + float64(i*3), "lon": -170 + float64(i*8)}
		if _, err := c.Insert(Doc{IDField: id, "loc": loc}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		want = append(want, id)
	}
	q := Doc{"loc": Doc{"$near": Doc{"lat": 0.0, "lon": 0.0, "$maxDistance": 2.1e7}}}
	for run := 0; run < 20; run++ {
		if got := ids(mustFind(t, c, q)); !slices.Equal(got, want) {
			t.Fatalf("run %d: $near = %v\nwant %v", run, got, want)
		}
	}
}

func TestHashIndexNumericKeyNormalization(t *testing.T) {
	c := NewStore().Collection("n")
	if err := c.CreateIndex("v"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	if _, err := c.Insert(Doc{"v": int64(7)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// Query with a different numeric type must still hit the index path
	// and match.
	if got := len(mustFind(t, c, Doc{"v": 7.0})); got != 1 {
		t.Fatalf("matched %d, want 1", got)
	}
}

func TestHashIndexServesArrayElementMatch(t *testing.T) {
	// The matcher lets {"tags": "x"} match a document whose tags array holds
	// "x"; an index on tags must not hide it.
	c := NewStore().Collection("posts")
	if err := c.CreateIndex("tags"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	for id, tags := range map[string][]any{"a": {"go", "db", "go"}, "b": {"db"}, "c": {}} {
		if _, err := c.Insert(Doc{IDField: id, "tags": tags}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	wantIDs(t, mustFind(t, c, Doc{"tags": "go"}), "a") // once, though "go" is there twice
	wantIDs(t, mustFind(t, c, Doc{"tags": "db"}), "a", "b")
	wantIDs(t, mustFind(t, c, Doc{"tags": []any{"db"}}), "b")
	if _, err := c.Update(Doc{IDField: "a"}, Doc{"$set": Doc{"tags": []any{"db"}}}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	wantIDs(t, mustFind(t, c, Doc{"tags": "go"}))
	if n, err := c.Delete(Doc{"tags": "db"}); err != nil || n != 2 {
		t.Fatalf("Delete = %d, %v; want 2", n, err)
	}
	wantIDs(t, mustFind(t, c, nil), "c")
}

// TestHashIndexScalarWriteAllocs pins a scalar field's index writes to
// its one key: adding and removing a slot under an existing key look the
// key up from the stack and allocate nothing.
func TestHashIndexScalarWriteAllocs(t *testing.T) {
	ix := newHashIndex("user")
	d := Doc{"user": "alice"}
	ix.add(1, d)
	ix.add(2, d) // grows the bucket to hold slot 2 from here on
	ix.remove(2, d)
	allocs := testing.AllocsPerRun(100, func() {
		ix.add(2, d)
		ix.remove(2, d)
	})
	if allocs != 0 {
		t.Fatalf("a scalar index add and remove allocate %v times, want 0", allocs)
	}
	if got := ix.get(hashKey("alice")); !slices.Equal(got, []uint32{1}) {
		t.Fatalf("bucket after the writes = %v, want [1]", got)
	}
	// Emptying a bucket frees it, and the next new key takes it over.
	ix.remove(1, d)
	ix.add(3, Doc{"user": "bob"})
	if len(ix.byK) != 1 || len(ix.buckets) != 1 || ix.get(hashKey("alice")) != nil ||
		!slices.Equal(ix.get(hashKey("bob")), []uint32{3}) {
		t.Fatalf("after emptying alice and filing bob: keys %v, buckets %v", ix.byK, ix.buckets)
	}
}

// TestIndexedInsertOfKnownValuesAllocs: inserting a document whose indexed
// values are already filed costs no more allocations than the same insert
// into a collection without the indexes.
func TestIndexedInsertOfKnownValuesAllocs(t *testing.T) {
	doc := Doc{"user": "alice", "stream": "accel-1", "n": 7, "ok": true}
	insertAllocs := func(indexed bool) float64 {
		c := NewStore().Collection("items")
		if indexed {
			for _, path := range []string{"user", "stream", "n", "ok"} {
				if err := c.CreateIndex(path); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 1000; i++ { // file the keys and grow past the first buckets
			if _, err := c.Insert(doc); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := c.Insert(doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain, indexed := insertAllocs(false), insertAllocs(true)
	if race.Enabled {
		// The race detector drops sync.Pool puts at random, so some inserts
		// allocate a fresh scratch buffer, and AllocsPerRun's truncated mean
		// reads 1 or 2 for either collection whatever the indexes do. Allow
		// that one allocation there; without -race the comparison is exact.
		plain++
	}
	if indexed > plain {
		t.Fatalf("an insert under four indexed known values allocates %v times, %v without the indexes", indexed, plain)
	}
}

func TestPrimaryKeyPlan(t *testing.T) {
	c := NewStore().Collection("users")
	if err := c.CreateIndex("city"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Insert(Doc{IDField: fmt.Sprintf("u%02d", i), "city": "Paris", "n": i}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	for _, tc := range []struct {
		name       string
		query      Doc
		candidates int
		ids        []string
	}{
		{"id alone", Doc{IDField: "u07"}, 1, []string{"u07"}},
		{"id beside a field", Doc{IDField: "u07", "n": 7}, 1, []string{"u07"}},
		{"id beside a field that fails", Doc{IDField: "u07", "n": 8}, 1, nil},
		{"id wins over the hash index", Doc{"city": "Paris", IDField: "u07"}, 1, []string{"u07"}},
		{"missing id", Doc{IDField: "nobody"}, 0, nil},
		{"missing id beside an indexed field", Doc{IDField: "nobody", "city": "Paris"}, 0, nil},
		{"non-string id scans", Doc{IDField: 7}, 50, nil},
		{"no id, hash index", Doc{"city": "Lyon"}, 0, nil},
	} {
		c.mu.RLock()
		slots, all := c.planLocked(tc.query)
		got := len(slots)
		if all {
			got = c.live
		}
		c.mu.RUnlock()
		if got != tc.candidates {
			t.Errorf("%s: plan examines %d candidates, want %d", tc.name, got, tc.candidates)
		}
		wantIDs(t, mustFind(t, c, tc.query), tc.ids...)
	}

	// The mutators resolve their targets through the same plan.
	if n, err := c.Update(Doc{IDField: "u07"}, Doc{"$set": Doc{"n": 107}}); err != nil || n != 1 {
		t.Fatalf("Update by id = %d, %v", n, err)
	}
	if id, err := c.Upsert(Doc{IDField: "u08"}, Doc{"city": "Lyon"}); err != nil || id != "u08" {
		t.Fatalf("Upsert by id = %q, %v", id, err)
	}
	if n, err := c.Delete(Doc{IDField: "u09"}); err != nil || n != 1 {
		t.Fatalf("Delete by id = %d, %v", n, err)
	}
	wantIDs(t, mustFind(t, c, Doc{"n": 107}), "u07")
	wantIDs(t, mustFind(t, c, Doc{"city": "Lyon"}), "u08")
	if c.Len() != 49 {
		t.Fatalf("Len = %d, want 49", c.Len())
	}
}
