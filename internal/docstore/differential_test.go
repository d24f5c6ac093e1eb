package docstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refStore is the collection as it was before records: documents kept as
// maps, deep-copied on the way in and on the way out, every query a scan in
// insertion order. It borrows the matcher and $set, which work on a Doc
// either way; what it checks is everything around them — storage, copying,
// ids, order, plans and index upkeep.
type refStore struct {
	name  string
	docs  map[string]Doc
	order []string
	seq   uint64
}

func cloneValue(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := make(Doc, len(t))
		for k, e := range t {
			out[k] = cloneValue(e)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = cloneValue(e)
		}
		return out
	}
	return v
}

func (r *refStore) put(id string, doc Doc) {
	cp := cloneValue(doc).(Doc)
	cp[IDField] = id
	if _, ok := r.docs[id]; !ok {
		r.order = append(r.order, id)
	}
	r.docs[id] = cp
}

// idFor mirrors idForLocked; ok is false where Insert fails.
func (r *refStore) idFor(doc Doc) (string, bool) {
	if v, has := doc[IDField]; has {
		id, _ := v.(string)
		_, dup := r.docs[id]
		return id, id != "" && !dup
	}
	r.seq++
	return fmt.Sprintf("%s-%d", r.name, r.seq), true
}

func (r *refStore) insert(doc Doc) (string, bool) {
	id, ok := r.idFor(doc)
	if ok {
		r.put(id, doc)
	}
	return id, ok
}

// matching returns the ids the query matches, in insertion order.
func (r *refStore) matching(t *testing.T, query Doc) []string {
	m, err := compileQuery(query)
	if err != nil {
		t.Fatalf("reference: compile %v: %v", query, err)
	}
	var ids []string
	for _, id := range r.order {
		if m.match(r.docs[id]) {
			ids = append(ids, id)
		}
	}
	return ids
}

func (r *refStore) find(t *testing.T, query Doc) []Doc {
	var out []Doc
	for _, id := range r.matching(t, query) {
		out = append(out, cloneValue(r.docs[id]).(Doc))
	}
	return out
}

func (r *refStore) upsert(t *testing.T, query, doc Doc) (string, bool) {
	if ids := r.matching(t, query); len(ids) > 0 {
		r.put(ids[0], doc)
		return ids[0], true
	}
	return r.insert(doc)
}

func (r *refStore) update(t *testing.T, query, spec Doc) int {
	up, err := compileUpdate(&keyTable{}, spec)
	if err != nil {
		t.Fatalf("reference: compile %v: %v", spec, err)
	}
	ids := r.matching(t, query)
	for _, id := range ids {
		if err := up.apply(r.docs[id]); err != nil {
			t.Fatalf("reference: apply %v: %v", spec, err)
		}
	}
	return len(ids)
}

func (r *refStore) delete(t *testing.T, query Doc) int {
	ids := r.matching(t, query)
	for _, id := range ids {
		delete(r.docs, id)
	}
	live := r.order[:0]
	for _, id := range r.order {
		if _, ok := r.docs[id]; ok {
			live = append(live, id)
		}
	}
	r.order = live
	return len(ids)
}

// scribble writes through everything reachable from a returned document; a
// later read shows it if the store handed out something it still holds.
func scribble(v any) {
	switch t := v.(type) {
	case map[string]any:
		for _, e := range t {
			scribble(e)
		}
		t["scribbled"] = true
		delete(t, "city")
	case []any:
		for i := range t {
			scribble(t[i])
			t[i] = "scribbled"
		}
	}
}

func TestDifferentialAgainstMapStore(t *testing.T) {
	cities := []string{"Paris", "Lyon", "Rome"}
	// Raw payloads over symMax bytes: two accelerometer windows and a short
	// array, which are packed, and a location fix, which stays inline.
	raws := []string{
		accelPayload(rand.New(rand.NewSource(1))),
		accelPayload(rand.New(rand.NewSource(2))),
		"[12,-3,4.5,6,7,8,9,10,11,12,13,14,15,16,17]",
		`{"lat":48.85661,"lon":2.35222,"accuracy_m":12,"fix_seconds":1.5}`,
	}
	// Each mix is the cumulative odds, out of 20, of insert, upsert, update,
	// delete, find, get, hash index and geo index. The churn mix rewrites
	// and deletes enough to compact the slabs and renumber the slots, which
	// its seeds must each do.
	mixed := [8]int{6, 8, 11, 13, 17, 18, 19, 20}
	churn := [8]int{5, 7, 12, 15, 17, 18, 19, 20}
	for seed := int64(1); seed <= 12; seed++ {
		mix, ops := mixed, 700
		if seed > 8 {
			mix, ops = churn, 1500
		}
		rng := rand.New(rand.NewSource(seed))
		c := NewStore().Collection("things")
		ref := &refStore{name: "things", docs: map[string]Doc{}}
		unique := 0

		pickID := func() string { return fmt.Sprintf("id%02d", rng.Intn(40)) }
		city := func() string { return cities[rng.Intn(len(cities))] }
		raw := func() string { return raws[rng.Intn(len(raws))] }
		newDoc := func() Doc {
			unique++
			d := Doc{"u": unique, "n": rng.Intn(10), "ratio": float32(rng.Intn(4)) / 4, "at": int64(rng.Intn(1000))}
			if rng.Intn(4) > 0 {
				d["city"] = city()
			}
			if rng.Intn(2) == 0 {
				d["loc"] = Doc{"lat": 48.8 + float64(rng.Intn(40))/100, "lon": 2.3 + float64(rng.Intn(40))/100}
			}
			if rng.Intn(2) == 0 {
				d["tags"] = []any{city(), rng.Intn(3), nil, Doc{"deep": []any{true, uint32(rng.Intn(5))}}}
			}
			if rng.Intn(3) == 0 {
				d["nested"] = Doc{"a": Doc{"b": rng.Intn(5)}}
			}
			if rng.Intn(3) == 0 {
				d["raw"] = raw()
			}
			return d
		}
		query := func() Doc {
			switch rng.Intn(13) {
			case 0:
				return nil
			case 1:
				return Doc{IDField: pickID()}
			case 2:
				return Doc{IDField: pickID(), "city": city()}
			case 3:
				return Doc{IDField: pickID(), "n": rng.Intn(10)}
			case 4:
				return Doc{"city": city()}
			case 5:
				return Doc{"n": rng.Intn(10), "city": city()}
			case 6:
				return Doc{"loc": Doc{"$near": Doc{"lat": 48.9, "lon": 2.4, "$maxDistance": float64(1000 + rng.Intn(20000))}}}
			case 7:
				return Doc{"tags": city()}
			case 8:
				return Doc{IDField: fmt.Sprintf("things-%d", 1+rng.Intn(20))}
			case 9:
				return Doc{"nested": Doc{"a": Doc{"b": rng.Intn(5)}}}
			case 10:
				return Doc{"city": city(), "loc": Doc{"$near": Doc{"lat": 48.9, "lon": 2.4, "$maxDistance": float64(1000 + rng.Intn(20000))}}}
			case 11:
				return Doc{"raw": raw()}
			default:
				return Doc{"n": rng.Intn(10)}
			}
		}
		spec := func() Doc {
			switch rng.Intn(7) {
			case 0:
				return Doc{"$set": Doc{"city": city()}}
			case 1:
				return Doc{"$set": Doc{"nested": Doc{"a": Doc{"b": rng.Intn(5)}}, "loc": Doc{"lat": 48.85, "lon": 2.35}}}
			case 2:
				return Doc{"$set": Doc{"n": rng.Intn(10), "at": int64(-1)}}
			case 3: // an array where a scalar was: the hash index files each element
				return Doc{"$set": Doc{"city": []any{city(), city()}, "tags": []any{Doc{"k": []any{city()}}}}}
			case 4: // a point no longer: the geo index lets the document go
				return Doc{"$set": Doc{"loc": nil, "ratio": float32(9)}}
			case 5:
				return Doc{"$set": Doc{"raw": raw()}}
			default:
				return Doc{"$set": Doc{"at": int64(rng.Intn(1000)), "loc": Doc{"lat": 48.8 + float64(rng.Intn(40))/100, "lon": 2.3}}}
			}
		}

		for op := 0; op < ops; op++ {
			what := fmt.Sprintf("seed %d op %d", seed, op)
			switch k := rng.Intn(20); {
			case k < mix[0]:
				d := newDoc()
				if rng.Intn(2) == 0 {
					d[IDField] = pickID()
				}
				id, err := c.Insert(d)
				wantID, ok := ref.insert(d)
				if (err == nil) != ok || (ok && id != wantID) {
					t.Fatalf("%s: Insert(%v) = %q, %v; reference %q, %v", what, d, id, err, wantID, ok)
				}
			case k < mix[1]:
				d := newDoc()
				var q Doc
				switch rng.Intn(3) {
				case 0:
					q = Doc{IDField: pickID()}
				case 1:
					q = Doc{"u": 1 + rng.Intn(unique)} // u is unique, so at most one match
				default:
					q = Doc{"city": city()} // the first match in insertion order is replaced
				}
				id, err := c.Upsert(q, d)
				wantID, ok := ref.upsert(t, q, d)
				if (err == nil) != ok || (ok && id != wantID) {
					t.Fatalf("%s: Upsert(%v, %v) = %q, %v; reference %q, %v", what, q, d, id, err, wantID, ok)
				}
			case k < mix[2]:
				q, u := query(), spec()
				n, err := c.Update(q, u)
				if want := ref.update(t, q, u); err != nil || n != want {
					t.Fatalf("%s: Update(%v, %v) = %d, %v; reference %d", what, q, u, n, err, want)
				}
			case k < mix[3]:
				q := query()
				if q == nil && rng.Intn(4) > 0 {
					q = Doc{"n": rng.Intn(10)} // emptying the collection is allowed, just not often
				}
				n, err := c.Delete(q)
				if want := ref.delete(t, q); err != nil || n != want {
					t.Fatalf("%s: Delete(%v) = %d, %v; reference %d", what, q, n, err, want)
				}
			case k < mix[4]:
				q := query()
				got, err := c.Find(q, FindOpts{})
				if err != nil {
					t.Fatalf("%s: Find(%v): %v", what, q, err)
				}
				if want := ref.find(t, q); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Find(%v)\n got %v\nwant %v", what, q, got, want)
				}
				for _, d := range got {
					scribble(d)
				}
			case k < mix[5]:
				id := pickID()
				got, err := c.Get(id)
				want, ok := ref.docs[id]
				if (err == nil) != ok || (ok && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%s: Get(%q) = %v, %v; reference %v, %v", what, id, got, err, want, ok)
				}
				if ok {
					scribble(got)
				}
			case k < mix[6]:
				path := []string{"city", "n", "tags", "nested", "raw"}[rng.Intn(5)]
				if err := c.CreateIndex(path); err != nil {
					t.Fatalf("%s: CreateIndex(%q): %v", what, path, err)
				}
			default:
				if err := c.CreateGeoIndex("loc"); err != nil {
					t.Fatalf("%s: CreateGeoIndex: %v", what, err)
				}
			}

			// Whatever plan served the operation, a full read is the
			// reference's documents in the reference's insertion order.
			all, err := c.Find(nil, FindOpts{})
			if err != nil {
				t.Fatalf("%s: Find(nil): %v", what, err)
			}
			if want := ref.find(t, nil); len(all) != len(want) || (len(want) > 0 && !reflect.DeepEqual(all, want)) {
				t.Fatalf("%s: collection diverged\n got %v\nwant %v", what, all, want)
			}
			if c.Len() != len(ref.order) {
				t.Fatalf("%s: Len = %d, reference %d", what, c.Len(), len(ref.order))
			}
		}
		if compactions, renumberings := c.reorganizations(); seed > 8 && (compactions == 0 || renumberings == 0) {
			t.Fatalf("seed %d: %d compactions and %d renumberings; the churn mix must cause both", seed, compactions, renumberings)
		}
	}
}
