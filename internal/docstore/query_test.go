package docstore

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func seedUsers(t *testing.T) *Collection {
	t.Helper()
	c := NewStore().Collection("users")
	users := []Doc{
		{IDField: "a", "name": "alice", "age": 30, "city": "Paris", "tags": []any{"osn", "mobile"},
			"loc": Doc{"lat": 48.8566, "lon": 2.3522}},
		{IDField: "b", "name": "bob", "age": 25, "city": "Paris",
			"loc": Doc{"lat": 48.86, "lon": 2.36}},
		{IDField: "c", "name": "carol", "age": 35, "city": "Bordeaux", "tags": []any{"osn"},
			"loc": Doc{"lat": 44.8378, "lon": -0.5792}},
		{IDField: "d", "name": "dave", "age": 40, "city": "Bordeaux", "active": true,
			"profile": Doc{"lang": "fr", "bio": "Plays Football on weekends"}},
		{IDField: "e", "name": "eve", "age": 28, "city": "Lyon",
			"loc": Doc{"lat": 45.7640, "lon": 4.8357}},
	}
	for _, u := range users {
		if _, err := c.Insert(u); err != nil {
			t.Fatalf("seed insert: %v", err)
		}
	}
	return c
}

func ids(docs []Doc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d[IDField].(string)
	}
	return out
}

func wantIDs(t *testing.T, docs []Doc, want ...string) {
	t.Helper()
	got := ids(docs)
	if len(got) != len(want) {
		t.Fatalf("ids = %v, want %v", got, want)
	}
	set := map[string]bool{}
	for _, id := range got {
		set[id] = true
	}
	for _, id := range want {
		if !set[id] {
			t.Fatalf("ids = %v, want %v", got, want)
		}
	}
}

func mustFind(t *testing.T, c *Collection, q Doc) []Doc {
	t.Helper()
	docs, err := c.Find(q, FindOpts{})
	if err != nil {
		t.Fatalf("Find(%v): %v", q, err)
	}
	return docs
}

func TestQueryImplicitEq(t *testing.T) {
	c := seedUsers(t)
	wantIDs(t, mustFind(t, c, Doc{"city": "Paris"}), "a", "b")
}

func TestQueryComparisonTypeMismatchNeverMatches(t *testing.T) {
	c := seedUsers(t)
	// Equality compares kinds first: a number never equals a string.
	wantIDs(t, mustFind(t, c, Doc{"name": 5}))
	wantIDs(t, mustFind(t, c, Doc{"age": "30"}))
	wantIDs(t, mustFind(t, c, Doc{"active": 1}))
}

func TestQueryExists(t *testing.T) {
	c := seedUsers(t)
	// A condition holds only where the field is present, even a nil one.
	if _, err := c.Insert(Doc{IDField: "f", "active": nil}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	wantIDs(t, mustFind(t, c, Doc{"active": nil}), "f")
	wantIDs(t, mustFind(t, c, Doc{"active": true}), "d")
}

func TestQueryNestedPath(t *testing.T) {
	c := seedUsers(t)
	// A field name is literal: a dotted name is not a path into profile.
	wantIDs(t, mustFind(t, c, Doc{"profile.lang": "fr"}))
	// A nested object is matched whole.
	wantIDs(t, mustFind(t, c, Doc{"profile": Doc{"lang": "fr", "bio": "Plays Football on weekends"}}), "d")
	wantIDs(t, mustFind(t, c, Doc{"profile": Doc{"lang": "fr"}}))
	if _, err := c.Insert(Doc{IDField: "dot", "profile.lang": "fr"}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	wantIDs(t, mustFind(t, c, Doc{"profile.lang": "fr"}), "dot")
}

func TestQueryArrayElementMatch(t *testing.T) {
	c := seedUsers(t)
	// Scalar condition against array field matches any element.
	wantIDs(t, mustFind(t, c, Doc{"tags": "osn"}), "a", "c")
	// The whole array still matches as a value.
	wantIDs(t, mustFind(t, c, Doc{"tags": []any{"osn"}}), "c")
}

func TestQueryNear(t *testing.T) {
	c := seedUsers(t)
	// Within 15 km of central Paris: alice and bob.
	near := Doc{"loc": Doc{"$near": Doc{"lat": 48.8566, "lon": 2.3522, "$maxDistance": 15000.0}}}
	wantIDs(t, mustFind(t, c, near), "a", "b")
	// dave has no loc field at all; must simply not match.
}

func TestQueryNearInvalid(t *testing.T) {
	c := seedUsers(t)
	if _, err := c.Find(Doc{"loc": Doc{"$near": "paris"}}, FindOpts{}); err == nil {
		t.Fatal("accepted non-object $near")
	}
	if _, err := c.Find(Doc{"loc": Doc{"$near": Doc{"lat": 1.0}}}, FindOpts{}); err == nil {
		t.Fatal("accepted $near without lon")
	}
	if _, err := c.Find(Doc{"loc": Doc{"$near": Doc{"lat": 1.0, "lon": 2.0, "$maxDistance": -5.0}}}, FindOpts{}); err == nil {
		t.Fatal("accepted negative radius")
	}
}

// wantRejected checks that every entry point that takes a query refuses q
// with an error naming op, and leaves the collection's documents in place.
func wantRejected(t *testing.T, c *Collection, q Doc, op string) {
	t.Helper()
	n := c.Len()
	want := fmt.Sprintf("%q", op)
	_, findErr := c.Find(q, FindOpts{})
	_, updErr := c.Update(q, Doc{"$set": Doc{"x": 1}})
	_, upsErr := c.Upsert(q, Doc{"x": 1})
	_, delErr := c.Delete(q)
	for call, err := range map[string]error{"Find": findErr, "Update": updErr, "Upsert": upsErr, "Delete": delErr} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s(%v) = %v, want an error naming %s", call, q, err, want)
		}
	}
	if c.Len() != n {
		t.Fatalf("rejected query %v left %d documents, want %d", q, c.Len(), n)
	}
}

// TestQueryComparisons: there are no range or inequality operators; each is
// an error that names it.
func TestQueryComparisons(t *testing.T) {
	c := seedUsers(t)
	for _, op := range []string{"$gt", "$gte", "$lt", "$lte", "$ne"} {
		wantRejected(t, c, Doc{"age": Doc{op: 30}}, op)
	}
	// Two operators on one field: the error names one of them.
	q := Doc{"age": Doc{"$gt": 25, "$lt": 35}}
	if _, err := c.Find(q, FindOpts{}); err == nil ||
		!(strings.Contains(err.Error(), `"$gt"`) || strings.Contains(err.Error(), `"$lt"`)) {
		t.Fatalf("Find(%v) = %v, want an error naming $gt or $lt", q, err)
	}
}

// TestQueryInNin: set membership is not in the language; equality on one
// value is.
func TestQueryInNin(t *testing.T) {
	c := seedUsers(t)
	wantRejected(t, c, Doc{"city": Doc{"$in": []any{"Paris", "Lyon"}}}, "$in")
	wantRejected(t, c, Doc{"city": Doc{"$nin": []any{"Paris", "Lyon"}}}, "$nin")
	wantIDs(t, mustFind(t, c, Doc{"city": "Lyon"}), "e")
}

// TestQueryContains: substring search is not in the language, and a string
// condition matches only the whole value.
func TestQueryContains(t *testing.T) {
	c := seedUsers(t)
	wantRejected(t, c, Doc{"name": Doc{"$contains": "al"}}, "$contains")
	wantIDs(t, mustFind(t, c, Doc{"name": "al"}))
	wantIDs(t, mustFind(t, c, Doc{"name": "alice"}), "a")
}

// TestQueryAndOrNot: there are no logical operators; the fields of one
// query are its only conjunction.
func TestQueryAndOrNot(t *testing.T) {
	c := seedUsers(t)
	wantRejected(t, c, Doc{"$and": []any{Doc{"city": "Paris"}}}, "$and")
	wantRejected(t, c, Doc{"$or": []any{Doc{"city": "Paris"}}}, "$or")
	wantRejected(t, c, Doc{"$not": Doc{"city": "Paris"}}, "$not")
	wantRejected(t, c, Doc{"city": "Bordeaux", "$or": []any{Doc{"age": 35}}}, "$or")
	wantIDs(t, mustFind(t, c, Doc{"city": "Paris", "age": 30}), "a")
	wantIDs(t, mustFind(t, c, Doc{"city": "Paris", "age": 35}))
}

// TestQueryOperatorValidation: the language is equality and $near; any
// other operator, including an unknown one or an extra one beside $near, is
// an error that names it. The removed operators have their own tests above.
func TestQueryOperatorValidation(t *testing.T) {
	c := seedUsers(t)
	near := Doc{"lat": 48.8566, "lon": 2.3522, "$maxDistance": 15000.0}
	for _, tc := range []struct {
		query Doc
		op    string
	}{
		{Doc{"age": Doc{"$eq": 30}}, "$eq"},
		{Doc{"active": Doc{"$exists": true}}, "$exists"},
		{Doc{"age": Doc{"$frob": 1}}, "$frob"},
		{Doc{"$frob": 1}, "$frob"},
		{Doc{"loc": Doc{"$near": near, "$minDistance": 10.0}}, "$minDistance"},
	} {
		wantRejected(t, c, tc.query, tc.op)
	}
}

func TestQueryEmptyMatchesAll(t *testing.T) {
	c := seedUsers(t)
	if got := len(mustFind(t, c, Doc{})); got != 5 {
		t.Fatalf("empty query matched %d, want 5", got)
	}
	if got := len(mustFind(t, c, nil)); got != 5 {
		t.Fatalf("nil query matched %d, want 5", got)
	}
}

func TestQueryNumericCrossTypes(t *testing.T) {
	c := NewStore().Collection("n")
	if _, err := c.Insert(Doc{"v": int64(5)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	for _, q := range []Doc{
		{"v": 5},
		{"v": 5.0},
		{"v": int32(5)},
		{"v": uint(5)},
	} {
		if got := len(mustFind(t, c, q)); got != 1 {
			t.Errorf("query %v matched %d, want 1", q, got)
		}
	}
}

// Property: compareValues is a total order — antisymmetric and transitive
// over a generated value domain.
func TestPropertyCompareValuesAntisymmetric(t *testing.T) {
	f := func(a, b int, sa, sb string, ba, bb bool, pick uint8) bool {
		va := pickValue(pick%6, a, sa, ba)
		vb := pickValue((pick/6)%6, b, sb, bb)
		return compareValues(va, vb) == -compareValues(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompareValuesReflexive(t *testing.T) {
	f := func(a int, s string, b bool, pick uint8) bool {
		v := pickValue(pick%6, a, s, b)
		return compareValues(v, v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func pickValue(kind uint8, n int, s string, b bool) any {
	switch kind {
	case 0:
		return nil
	case 1:
		return b
	case 2:
		return n
	case 3:
		return float64(n) / 3
	case 4:
		return s
	default:
		return []any{n, s}
	}
}

// Property: a document inserted with field v matches {"field": v} for any
// scalar v.
func TestPropertyInsertThenEqualityFind(t *testing.T) {
	f := func(n int, s string, b bool, pick uint8) bool {
		v := pickValue(pick%5, n, s, b)
		if v == nil {
			return true // nil values do not round-trip through $eq presence semantics
		}
		c := NewStore().Collection("p")
		if _, err := c.Insert(Doc{"field": v}); err != nil {
			return false
		}
		docs, err := c.Find(Doc{"field": v}, FindOpts{})
		return err == nil && len(docs) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: updates never change a document's identity and Len is invariant
// under update.
func TestPropertyUpdatePreservesIdentity(t *testing.T) {
	f := func(vals []int16) bool {
		c := NewStore().Collection("p")
		ids := make([]string, 0, len(vals))
		for i, v := range vals {
			id, err := c.Insert(Doc{IDField: fmt.Sprintf("d%03d", i), "v": int(v)})
			if err != nil {
				return false
			}
			ids = append(ids, id)
		}
		if _, err := c.Update(Doc{}, Doc{"$set": Doc{"touched": true}}); err != nil && len(vals) > 0 {
			return false
		}
		if c.Len() != len(vals) {
			return false
		}
		for _, id := range ids {
			d, err := c.Get(id)
			if err != nil || d[IDField] != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Delete(q) removes exactly the documents Find(q) returns and
// leaves the rest untouched.
func TestPropertyDeleteCountConsistency(t *testing.T) {
	f := func(vals []uint8) bool {
		c := NewStore().Collection("p")
		for _, v := range vals {
			if _, err := c.Insert(Doc{"v": int(v % 4)}); err != nil {
				return false
			}
		}
		q := Doc{"v": 1}
		want, err := c.Find(q, FindOpts{})
		if err != nil {
			return false
		}
		total := c.Len()
		n, err := c.Delete(q)
		if err != nil || n != len(want) {
			return false
		}
		left, err := c.Find(q, FindOpts{})
		if err != nil || len(left) != 0 {
			return false
		}
		return c.Len() == total-n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
