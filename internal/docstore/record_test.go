package docstore

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// docGen turns fuzz bytes into a nested document of every storable kind.
type docGen struct{ b []byte }

func (g *docGen) next() byte {
	if len(g.b) == 0 {
		return 0
	}
	x := g.b[0]
	g.b = g.b[1:]
	return x
}

func (g *docGen) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(g.next())
	}
	return v
}

func (g *docGen) str() string {
	n := int(g.next() % 12)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(g.next())
	}
	return sb.String()
}

func (g *docGen) doc(depth int) Doc {
	d := Doc{}
	for i, n := 0, int(g.next()%5); i < n; i++ {
		d[fmt.Sprintf("k%d", g.next()%16)] = g.value(depth + 1)
	}
	return d
}

func (g *docGen) value(depth int) any {
	kind := g.next() % 14
	if depth > 4 && kind >= 12 {
		kind %= 12
	}
	switch kind {
	case 0:
		return nil
	case 1:
		return g.next()%2 == 0
	case 2:
		return int(g.u64())
	case 3:
		return int32(g.u64())
	case 4:
		return int64(g.u64())
	case 5:
		return uint(g.u64())
	case 6:
		return uint32(g.u64())
	case 7:
		return g.u64()
	case 8:
		if f := math.Float32frombits(uint32(g.u64())); f == f { // DeepEqual(NaN, NaN) is false
			return f
		}
		return float32(0)
	case 9:
		if f := math.Float64frombits(g.u64()); f == f {
			return f
		}
		return math.Inf(-1)
	case 10, 11:
		return g.str()
	case 12:
		arr := make([]any, g.next()%4)
		for i := range arr {
			arr[i] = g.value(depth + 1)
		}
		return arr
	default:
		return g.doc(depth)
	}
}

func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 12, 3, 2, 0, 9, 10, 13, 2, 5, 7, 6, 11, 3, 'a', 'b', 'c'})
	f.Add([]byte("\x03\x00\x0b\x02hi\x01\x0c\x02\x00\x01\x02\x0d\x01\x00\x03\x05"))
	f.Add([]byte{1, 0, 12, 255, 255, 255, 255, 15}) // array claiming 2^32 elements
	f.Fuzz(func(t *testing.T, data []byte) {
		var keys keyTable
		for i := 0; i < 16; i++ { // the names the generator uses, so raw refs 0..15 resolve
			keys.ref(fmt.Sprintf("k%d", i))
		}

		// As a generator seed: what goes in comes out, Go kinds included.
		g := docGen{b: data}
		doc := g.doc(0)
		doc[IDField] = "id-" + g.str()
		rec, err := keys.encode(doc)
		if err != nil {
			t.Fatalf("encode(%#v): %v", doc, err)
		}
		got, err := keys.decode(doc[IDField].(string), *rec)
		if err != nil {
			t.Fatalf("decode(encode(%#v)): %v", doc, err)
		}
		if !reflect.DeepEqual(got, doc) {
			t.Fatalf("round trip\n got %#v\nwant %#v", got, doc)
		}

		// As a record: arbitrary bytes decode or fail, and never panic.
		if d, err := keys.decode("x", data); err == nil {
			if _, err := keys.encode(d); err != nil {
				t.Fatalf("decoded %#v from %x but cannot encode it: %v", d, data, err)
			}
		}
		_, _ = keys.decodeValue(data)
	})
}

func TestEncodeRejectsUnsupportedValues(t *testing.T) {
	type point struct{ X int }
	cases := []struct {
		doc  Doc
		path string
		typ  string
	}{
		{Doc{"tags": []string{"a"}}, `"tags"`, "[]string"},
		{Doc{"a": Doc{"b": []any{1, map[string]string{"k": "v"}}}}, `"a.b[1]"`, "map[string]string"},
		{Doc{"p": &point{1}}, `"p"`, "*docstore.point"},
		{Doc{"n": int8(3)}, `"n"`, "int8"},
		{Doc{"m": []any{[]any{point{2}}}}, `"m[0][0]"`, "docstore.point"},
	}
	c := NewStore().Collection("c")
	if _, err := c.Insert(Doc{"_id": "seed", "tags": []any{}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		_, insErr := c.Insert(tc.doc)
		_, upsErr := c.Upsert(Doc{"_id": "seed"}, tc.doc)
		for op, err := range map[string]error{"Insert": insErr, "Upsert": upsErr} {
			if err == nil || !strings.Contains(err.Error(), tc.path) || !strings.Contains(err.Error(), tc.typ) {
				t.Errorf("%s(%v) = %v, want an error naming %s and %s", op, tc.doc, err, tc.path, tc.typ)
			}
		}
	}
	if _, err := c.Update(Doc{"_id": "none"}, Doc{"$set": Doc{"tags": Doc{"deep": []int{1}}}}); err == nil ||
		!strings.Contains(err.Error(), `"tags.deep"`) || !strings.Contains(err.Error(), "[]int") {
		t.Errorf("$set of []int = %v, want an error naming tags.deep and []int", err)
	}
	if c.Len() != 1 {
		t.Fatalf("rejected writes left %d documents, want 1", c.Len())
	}
	// A document that refers to itself is an error, not a stack overflow.
	loop := Doc{}
	loop["self"] = loop
	if _, err := c.Insert(loop); err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Fatalf("Insert(self-referencing) = %v", err)
	}
}

// itemDoc is the document server.DeliveryHub persists per item, in the
// uplink_capacity mix: 60 % classified, 30 % a raw ~1 KB accelerometer
// window, 10 % a raw location fix.
func itemDoc(i int) Doc {
	d := Doc{
		"stream": fmt.Sprintf("activity-%05d", i%1000), "device": fmt.Sprintf("d%05d", i%1000),
		"user": fmt.Sprintf("u%05d", i%1000), "modality": "accelerometer",
		"granularity": "classified", "time": int64(1_700_000_000_000 + i), "classified": "walking",
	}
	switch {
	case i%10 >= 7:
		d["granularity"], d["classified"] = "raw", ""
		d["raw"] = `{"rate_hz":50,"x":[` + strings.Repeat("-1234,", 170) + `0]}`
	case i%10 == 6:
		d["granularity"], d["classified"] = "raw", ""
		d["raw"] = `{"lat":48.85661,"lon":2.35222,"accuracy_m":12,"fix_seconds":1.5}`
	}
	return d
}

// TestInsertRetainedBytesPerDoc pins what a stored document costs: its
// entry in a slab (record and id), its slot and its share of the id table.
// The bound is the 434 B/doc it reads plus 10 %.
func TestInsertRetainedBytesPerDoc(t *testing.T) {
	const n = 20000
	c := NewStore().Collection("items")
	before := gcHeap().HeapAlloc
	for i := 0; i < n; i++ {
		if _, err := c.Insert(itemDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	after := gcHeap().HeapAlloc
	perDoc := float64(after-before) / n
	t.Logf("%.0f B/doc retained", perDoc)
	if perDoc > 477 {
		t.Fatalf("%d inserts retain %.0f B/doc, want <= 477", n, perDoc)
	}
	runtime.KeepAlive(c)
}
