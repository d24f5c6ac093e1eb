package docstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/race"
)

// docGen turns fuzz bytes into nested documents of every storable kind. Its
// strings run from 0 to 64 bytes, either side of symMax, and it reuses the
// ones it has made, so documents share dictionary values. Its numeric text
// runs from 33 to 2 000 bytes of integer arrays, some canonical and some
// mixed with other bytes, so it is stored as arrays or inline depending on
// the mix.
type docGen struct {
	b    []byte
	strs []string
}

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
	if len(g.strs) > 0 && g.next()%2 == 0 {
		return g.strs[int(g.next())%len(g.strs)]
	}
	n := int(g.next() % 65)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(g.next())
	}
	g.strs = append(g.strs, sb.String())
	return sb.String()
}

// numeric returns 33 to 2 000 bytes of arrays of up to 15 integers, whose
// magnitude in bits is set by the fuzz input, with each byte replaced by an
// arbitrary one at odds set by the input (none at all for a zero). A few
// input bytes seed the text, so long strings cost little input.
func (g *docGen) numeric() string {
	n := 33 + int(uint16(g.next())<<8|uint16(g.next()))%1968
	mixed := int(g.next())
	span := g.next() % 64
	h := g.u64()
	rnd := func() uint64 {
		h = h*6364136223846793005 + 1442695040888963407
		return h
	}
	b := []byte(`{"x":`)
	for len(b) < n {
		b = append(b, '[')
		for i, k := 0, int(rnd()>>60); i < k; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(rnd())>>(63-span), 10)
		}
		b = append(b, "],"...)
	}
	b = b[:n]
	for i := range b {
		if x := rnd() >> 32; int(x&0xff) < mixed {
			b[i] = byte(x >> 8)
		}
	}
	return string(b)
}

func (g *docGen) doc(depth int) Doc {
	d := Doc{}
	for i, n := 0, int(g.next()%5); i < n; i++ {
		d[fmt.Sprintf("k%d", g.next()%16)] = g.value(depth + 1)
	}
	return d
}

func (g *docGen) value(depth int) any {
	kind := g.next() % 15
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
	case 13:
		return g.numeric()
	default:
		return g.doc(depth)
	}
}

func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 12, 3, 2, 0, 9, 10, 13, 2, 5, 7, 6, 11, 3, 'a', 'b', 'c'})
	f.Add([]byte("\x03\x00\x0b\x02hi\x01\x0c\x02\x00\x01\x02\x0d\x01\x00\x03\x05"))
	f.Add([]byte{1, 0, 12, 255, 255, 255, 255, 15}) // array claiming 2^32 elements
	f.Add([]byte{1, 0, kindSym, 0x80, 0x20})        // value ref past the dictionary
	f.Add([]byte{2, 0, kindSym, 0, 1, kindSym, 0xff, 0xff, 0xff, 0xff, 0x0f})
	// Three documents with overlapping key sets, so they share some shapes
	// and not others.
	f.Add([]byte{2, 2, 1, 0, 2, 1, 0, 2, 'a', 'b', 3, 3, 10, 1, 1, 'x', 1, 0, 5, 1, 1, 1, 1, 'c', 2, 2, 0, 1, 0, 0, 0})
	// Documents nested three deep, one of them empty.
	f.Add([]byte{0, 2, 4, 14, 2, 0, 14, 1, 1, 10, 3, 'x', 'y', 'z', 9, 2, 1, 2, 3, 4, 5, 6, 7, 8, 6, 14, 0, 1, 1, 'i'})
	// Arrays of documents of different shapes, and an array in an array.
	f.Add([]byte{1, 1, 3, 12, 3, 14, 2, 1, 0, 2, 1, 1, 14, 1, 2, 0, 14, 0, 1, 'q',
		1, 3, 12, 2, 14, 1, 1, 10, 0, 0, 12, 1, 14, 0, 1, 1, 'r'})
	// Records in the shape grammar: an inline shape, a shape ref, and a
	// shape ref past the dictionary.
	f.Add([]byte{0, 4, 0, kindNil, 1, kindInt, 6})
	f.Add([]byte{1, 2, 0, 0})
	f.Add([]byte{0x80, 0x20, 0, 14})
	f.Add([]byte{3, 1, 10, 1, 40, 2, 1, 11, 0, 3, 1, 10, 0, 0})
	f.Add([]byte{1, 0, 13, 7, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}) // pure numeric text
	f.Add([]byte{2, 1, 13, 1, 200, 60, 9, 9, 9, 9, 9, 9, 9, 9, 0, 13, 0, 40, 255, 1, 2})
	for _, c := range arraysCorrupt {
		f.Add(c.rec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := tableWithNames(16) // the names the generator uses, so raw refs 0..15 resolve

		// As a generator seed: what goes in comes out, Go kinds included,
		// for several documents written through one table.
		g := docGen{b: data}
		docs := make([]Doc, 1+g.next()%4)
		recs := make([][]byte, len(docs))
		for i := range docs {
			docs[i] = g.doc(0)
			docs[i][IDField] = "id-" + g.str()
			rec, err := keys.encode(docs[i])
			if err != nil {
				t.Fatalf("encode(%#v): %v", docs[i], err)
			}
			recs[i] = rec.b
		}
		for i, doc := range docs {
			got, err := keys.decode(doc[IDField].(string), recs[i])
			if err != nil {
				t.Fatalf("decode(encode(%#v)): %v", doc, err)
			}
			if !reflect.DeepEqual(got, doc) {
				t.Fatalf("round trip\n got %#v\nwant %#v", got, doc)
			}
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

// tableWithNames returns a keyTable whose field names k0..k(n-1) have refs
// 0..n-1 and whose dictionary is empty.
func tableWithNames(n int) *keyTable {
	keys := &keyTable{refs: make(map[string]uint64)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("k%d", i)
		keys.refs[name] = uint64(len(keys.names))
		keys.names = append(keys.names, name)
	}
	return keys
}

// oneField is the record of a document whose one field, k0, has the given
// kind and payload, with its shape written inline.
func oneField(kind byte, payload ...byte) []byte {
	return append([]byte{0, 2, 0, kind}, payload...)
}

// TestSymbolRefPastDictionaryIsCorrupt decodes records whose value ref
// points at or past the end of the dictionary, in an empty table, past the
// last entry inside the first chunk and into a chunk that does not exist.
func TestSymbolRefPastDictionaryIsCorrupt(t *testing.T) {
	empty := tableWithNames(1)
	one := tableWithNames(1)
	rec, err := one.encode(Doc{"k0": "ab"})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := one.decode("x", rec.b); err != nil || got["k0"] != "ab" {
		t.Fatalf("decode = %v, %v", got, err)
	}
	for _, tc := range []struct {
		keys    *keyTable
		payload []byte
	}{
		{empty, []byte{0}},
		{one, []byte{byte(one.end)}},          // the first byte past the last entry
		{one, []byte{0xff, 0x0f}},             // inside chunk 0, past the end
		{one, []byte{0x80, 0x20}},             // offset 4096: chunk 1
		{one, []byte{0xff, 0xff, 0xff, 0x7f}}, // far past
	} {
		rec := oneField(kindSym, tc.payload...)
		if d, err := tc.keys.decode("x", rec); err != errCorruptRecord {
			t.Errorf("decode(%x) = %v, %v; want errCorruptRecord", rec, d, err)
		}
		val := append([]byte{kindSym}, tc.payload...)
		if v, err := tc.keys.decodeValue(val); err != errCorruptRecord {
			t.Errorf("decodeValue(%x) = %v, %v; want errCorruptRecord", val, v, err)
		}
	}
}

// TestShapeRefPastDictionaryIsCorrupt decodes records whose shape ref
// points at or past the end of the dictionary, and inline shapes that do
// not describe a document: a key ref past the names, refs out of order or
// repeated, an unknown kind, and a shape longer than the record.
func TestShapeRefPastDictionaryIsCorrupt(t *testing.T) {
	keys := tableWithNames(2)
	rec, err := keys.encode(Doc{"k0": "ab", "k1": int64(7)})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := keys.decode("x", rec.b); err != nil || got["k0"] != "ab" || got["k1"] != int64(7) {
		t.Fatalf("decode = %v, %v", got, err)
	}
	ref := binary.AppendUvarint(nil, keys.end+1) // offset end
	for _, bad := range [][]byte{
		append(ref, 0, 14),
		{0x80, 0x20, 0, 14},            // offset 4095, in a chunk that does not exist
		{0xff, 0xff, 0xff, 0xff, 0x0f}, // far past
		{0, 2, 2, kindNil},             // key ref 2 of 2 names
		{0, 4, 1, kindNil, 0, kindNil}, // refs descending
		{0, 4, 0, kindNil, 0, kindNil}, // a ref twice
		{0, 2, 0, kindArrays + 1},      // no such kind
		{0, 4, 0, kindNil},             // a shape longer than the record
		{0, 3, 0, kindNil, 1},          // a pair cut off
	} {
		if d, err := keys.decode("x", bad); err != errCorruptRecord {
			t.Errorf("decode(%x) = %v, %v; want errCorruptRecord", bad, d, err)
		}
	}
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
// uplink_capacity mix: 60 % classified, 30 % a raw accelerometer window
// (accelPayload, seeded by i), 10 % a raw location fix.
func itemDoc(i int) Doc {
	d := Doc{
		"stream": fmt.Sprintf("activity-%05d", i%1000), "device": fmt.Sprintf("d%05d", i%1000),
		"user": fmt.Sprintf("u%05d", i%1000), "modality": "accelerometer",
		"granularity": "classified", "time": int64(1_700_000_000_000 + i), "classified": "walking",
	}
	switch {
	case i%10 >= 7:
		d["granularity"], d["classified"] = "raw", ""
		d["raw"] = accelPayload(rand.New(rand.NewSource(int64(i))))
	case i%10 == 6:
		d["granularity"], d["classified"] = "raw", ""
		d["raw"] = `{"lat":48.85661,"lon":2.35222,"accuracy_m":12,"fix_seconds":1.5}`
	}
	return d
}

// actionDoc is the document server.DeliveryHub persists for an item that
// answers an OSN action, as bench/'s osn_trigger workload uploads it: a
// classified location of one of 256 users, carrying the action, whose id is
// its own.
func actionDoc(i int) Doc {
	u := i % 256
	return Doc{
		"stream": fmt.Sprintf("location-%05d", u), "device": fmt.Sprintf("d%05d", u),
		"user": fmt.Sprintf("u%05d", u), "modality": "location", "granularity": "classified",
		"time": int64(1_700_000_000_000 + i), "classified": []string{"Paris", "Lyon", "Lille", "Nice"}[u%4],
		"action": Doc{
			"id": "a" + strconv.Itoa(i), "type": []string{"post", "like", "comment"}[i%3],
			"text": fmt.Sprintf("status update %d", i%64), "network": "facebook",
		},
	}
}

// retainedPerDoc inserts n documents made by doc into a fresh collection
// and returns the heap they leave behind, per document.
func retainedPerDoc(t *testing.T, n int, doc func(int) Doc) float64 {
	t.Helper()
	c := NewStore().Collection("items")
	before := gcHeap().HeapAlloc
	for i := 0; i < n; i++ {
		if _, err := c.Insert(doc(i)); err != nil {
			t.Fatal(err)
		}
	}
	perDoc := (float64(gcHeap().HeapAlloc) - float64(before)) / float64(n)
	runtime.KeepAlive(c)
	return perDoc
}

// TestInsertRetainedBytesPerDoc pins what a stored document costs: its
// entry in a slab (record and id), its slot, its share of the id table and
// of the value dictionary. The bound is the 175 B/doc it reads plus 10 %
// (227 B/doc before integer arrays were bit packed, 280 B/doc before shapes
// went to the dictionary and generated ids were stored as numbers, 434
// B/doc before short strings went there).
func TestInsertRetainedBytesPerDoc(t *testing.T) {
	perDoc := retainedPerDoc(t, 20000, itemDoc)
	t.Logf("%.0f B/doc retained", perDoc)
	if perDoc > 193 {
		t.Fatalf("inserts retain %.0f B/doc, want <= 193", perDoc)
	}
}

// TestInsertRetainedBytesPerActionDoc is TestInsertRetainedBytesPerDoc for
// an item that carries an OSN action, a document of two shapes whose
// action id is new every time. The bound is the 81 B/doc it reads plus
// 10 % (133 B/doc before shapes went to the dictionary and generated ids
// were stored as numbers). The unused tail of the last slab chunk is 23
// B/doc of the reading (43 B/doc of the older one).
func TestInsertRetainedBytesPerActionDoc(t *testing.T) {
	perDoc := retainedPerDoc(t, 20000, actionDoc)
	t.Logf("%.0f B/doc retained", perDoc)
	if perDoc > 89 {
		t.Fatalf("inserts retain %.0f B/doc, want <= 89", perDoc)
	}
}

// TestUniqueShortStringsCostBounded pins the dictionary's worst case: each
// document carries a short string no other has, so every one is admitted
// and none is shared. Written inline it cost 50.8 B/doc; the dictionary may
// add at most 16 B/doc to that.
func TestUniqueShortStringsCostBounded(t *testing.T) {
	const n = 100000
	c := NewStore().Collection("tags")
	before := gcHeap().HeapAlloc
	for i := 0; i < n; i++ {
		if _, err := c.Insert(Doc{"tag": fmt.Sprintf("%08x", i), "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	perDoc := float64(gcHeap().HeapAlloc-before) / n
	t.Logf("%.1f B/doc retained", perDoc)
	if perDoc > 50.8+16 {
		t.Fatalf("%d inserts of unique 8-byte strings retain %.1f B/doc, want <= %.1f", n, perDoc, 50.8+16)
	}
	runtime.KeepAlive(c)
}

// TestInsertOfKnownValuesAllocates pins the dictionary's hit path: an Insert
// whose field names and short strings are all in the table already takes
// its lock once, shared, and allocates no more than an Insert did before
// there was a dictionary (2).
func TestInsertOfKnownValuesAllocates(t *testing.T) {
	c := NewStore().Collection("items")
	// A classified item, and a raw accelerometer window whose payload is
	// written as kindArrays. The window's record is the larger, so a fresh
	// scratch buffer grows more times to hold it, and the race detector
	// drops sync.Pool puts by design: there it is left out.
	docs := []Doc{itemDoc(1), itemDoc(7)}
	if race.Enabled {
		docs = docs[:1]
	}
	for _, doc := range docs {
		if _, err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := c.Insert(doc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("Insert of known names and values (%s): %.1f allocs, want <= 2", doc["granularity"], allocs)
		}
	}
}

// TestSymbolAdmissionRacesReaders inserts documents that each admit a new
// short string while another goroutine reads them back with Get and Find.
// A reader resolves value refs after the collection lock is released, so a
// writer admitting the next value into the same dictionary chunk must not
// write anything that reader reads; `go test -race` checks that it does not.
func TestSymbolAdmissionRacesReaders(t *testing.T) {
	const n = 2000
	c := NewStore().Collection("items")
	if err := c.CreateIndex("group"); err != nil {
		t.Fatal(err)
	}
	inserted := make(chan int, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range inserted {
			id := fmt.Sprintf("d%d", i)
			if d, err := c.Get(id); err != nil || d["tag"] != "tag-"+id {
				t.Errorf("Get(%q) = %v, %v", id, d, err)
				return
			}
			docs, err := c.Find(Doc{"group": i % 64}, FindOpts{})
			if err != nil || len(docs) == 0 || docs[len(docs)-1]["tag"] != "tag-"+id {
				t.Errorf("Find(group %d) = %d documents, %v; want the last tagged tag-%s", i%64, len(docs), err, id)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("d%d", i)
		if _, err := c.Insert(Doc{IDField: id, "group": i % 64, "tag": "tag-" + id}); err != nil {
			t.Fatal(err)
		}
		inserted <- i
	}
	close(inserted)
	<-done
}

// arraysCorrupt are records of one kindArrays field (ref 0) that do not
// decode. Each changes one thing in arraysWellFormed.
var arraysCorrupt = []struct {
	name string
	rec  []byte
}{
	{"width over 64", oneField(kindArrays, 15, 1, 0, 7, 10, 65, 0x00, 0)},
	{"count past the declared length", oneField(kindArrays, 15, 1, 0, 8, 10, 1, 0x00, 0)},
	{"count far past the record", oneField(kindArrays, 15, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 10, 0, 0)},
	{"bits past the record", oneField(kindArrays, 15, 1, 0, 7, 10, 1)},
	{"bits of width 64 past the record", oneField(kindArrays, 15, 1, 0, 7, 10, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0)},
	{"a pad bit set", oneField(kindArrays, 15, 1, 0, 7, 10, 1, 0x80, 0)},
	{"gap past the record", oneField(kindArrays, 15, 1, 40, 'a', 'b')},
	{"tail past the record", oneField(kindArrays, 15, 1, 0, 7, 10, 1, 0x00, 40, 'a')},
	{"declared length one short", oneField(kindArrays, 14, 1, 0, 7, 10, 1, 0x00, 0)},
	{"declared length one long", oneField(kindArrays, 16, 1, 0, 7, 10, 1, 0x00, 0)},
	{"declared length past arraysMax", oneField(kindArrays, 0x81, 0x80, 0x80, 0x08, 1, 0, 0, 0, 0, 0)},
	{"an array declared and missing", oneField(kindArrays, 15, 2, 0, 7, 10, 1, 0x00, 0)},
}

// arraysWellFormed holds "[5,5,5,5,5,5,5]": no gap, seven values of width 1
// above a minimum of 5 (varint 10), a zero pad bit, no tail.
var arraysWellFormed = oneField(kindArrays, 15, 1, 0, 7, 10, 1, 0x00, 0)

func TestArraysValueCorrupt(t *testing.T) {
	keys := tableWithNames(1)
	if got, err := keys.decode("x", arraysWellFormed); err != nil || got["k0"] != "[5,5,5,5,5,5,5]" {
		t.Fatalf("decode of a well-formed arrays value = %v, %v", got, err)
	}
	for _, c := range arraysCorrupt {
		if d, err := keys.decode("x", c.rec); err != errCorruptRecord {
			t.Errorf("%s: decode(%x) = %v, %v; want errCorruptRecord", c.name, c.rec, d, err)
		}
		if v, err := keys.decodeValue(c.rec[3:]); err != errCorruptRecord {
			t.Errorf("%s: decodeValue(%x) = %v, %v; want errCorruptRecord", c.name, c.rec[3:], v, err)
		}
	}
}

// accelPayload is a raw accelerometer window as sensors.AccelReading
// marshals it: 50 samples per axis in milli-m/s², each drawn from rng.
func accelPayload(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString(`{"rate_hz":50`)
	for _, axis := range []string{"x", "y", "z"} {
		b.WriteString(`,"` + axis + `":[`)
		for i := 0; i < 50; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(rng.Intn(20000) - 10000))
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.String()
}

// TestUniqueAccelPayloadsPack stores 1 000 accelerometer windows no two of
// which are alike, so nothing is shared between records: each record must
// come to at most 42 % of its payload's text, and read back as written.
func TestUniqueAccelPayloadsPack(t *testing.T) {
	keys := tableWithNames(1)
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	recBytes, textBytes := 0, 0
	for i := 0; i < 1000; i++ {
		raw := accelPayload(rng)
		if seen[raw] {
			t.Fatalf("payload %d repeats an earlier one", i)
		}
		seen[raw] = true
		doc := Doc{IDField: "x", "k0": raw}
		rec, err := keys.encode(doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.b) > len(raw)*42/100 {
			t.Fatalf("a %d-byte payload takes a %d-byte record, want <= 42 %%", len(raw), len(rec.b))
		}
		recBytes, textBytes = recBytes+len(rec.b), textBytes+len(raw)
		got, err := keys.decode("x", rec.b)
		release(rec)
		if err != nil || !reflect.DeepEqual(got, doc) {
			t.Fatalf("round trip of payload %d = %v, %v", i, got, err)
		}
	}
	t.Logf("%d payload bytes in %d record bytes (%.1f %%)", textBytes, recBytes, 100*float64(recBytes)/float64(textBytes))
}

// TestStringsWithoutArraysStayInline checks that a string over symMax bytes
// with no array of arrayMin canonical integers, or whose arrays would not
// make it smaller, is written as kindString, byte for byte, and that one
// array of arrayMin is enough to pack a string.
func TestStringsWithoutArraysStayInline(t *testing.T) {
	keys := tableWithNames(1)
	for _, s := range []string{
		`{"lat":48.85661,"lon":2.35222,"accuracy_m":12,"fix_seconds":1.5}`,
		`{"frame_rate_hz":10,"rms":[0.12,0.5,0.33,0.08,0.41,0.27,0.19,0.6,0.05]}`,
		`{"x":[1,2,3,4,5,6,7],"y":[1, 2, 3, 4, 5, 6, 7, 8]}`,
		`{"x":[-0,1,2,3,4,5,6,7],"y":[01,1,2,3,4,5,6,7],"z":[+1,1,2,3,4,5,6,7]}`,
		`{"x":[[1,2],[3,4],[5,6],[7,8]],"y":[1,2,3,4,5,6,7,8`,
		`{"v":[0,9223372036854775807,0,0,0,0,0,0]}`,
	} {
		val, err := keys.encodeValue("k0", s)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte{kindString, byte(len(s))}, s...)
		if !bytes.Equal(val, want) {
			t.Errorf("%q stored as %x, want inline %x", s, val, want)
		}
	}
	s := `{"rate_hz":50,"x":[1,2,3,4,5,6,7,8]}`
	val, err := keys.encodeValue("k0", s)
	if err != nil {
		t.Fatal(err)
	}
	if val[0] != kindArrays || len(val) >= 2+len(s) {
		t.Errorf("%q stored as %x, want kindArrays smaller than inline", s, val)
	}
}

// FuzzStringRoundTrip checks that any string comes back from encodeValue
// and decodeValue as it went in, and is never stored larger than inline.
func FuzzStringRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []string{
		accelPayload(rng), accelPayload(rng),
		"[1,2,3,4,5,6,7,8][9,10,11,12,13,14,15,16],[0,0,0,0,0,0,0,0]",
		`{"seven":[1,2,3,4,5,6,7],"eight":[1,2,3,4,5,6,7,8]}`,
		"[-9223372036854775808,9223372036854775807,-9223372036854775808,9223372036854775807," +
			"-9223372036854775808,9223372036854775807,-9223372036854775808,9223372036854775807]",
		`{"v":[9223372036854775808,1,2,3,4,5,6,7],"w":[12345678901234567890,1,2,3,4,5,6,7]}`,
		`{"x":[-0,1,2,3,4,5,6,7],"y":[01,1,2,3,4,5,6,7],"z":[+1,1,2,3,4,5,6,7]}`,
		`{"x":[1.0,1,2,3,4,5,6,7],"y":[1, 2, 3, 4, 5, 6, 7, 8]}`,
		`{"x":[[1,2,3,4,5,6,7,8],[1,2]],"y":[1,2,3,4,5,6,7,8`,
		"[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		keys := tableWithNames(0)
		val, err := keys.encodeValue("k", s)
		if err != nil {
			t.Fatal(err)
		}
		if len(val) > 1+binary.MaxVarintLen64+len(s) {
			t.Fatalf("%q stored in %d bytes, more than inline", s, len(val))
		}
		got, err := keys.decodeValue(val)
		if err != nil || got != s {
			t.Fatalf("round trip of %q through %x = %q, %v", s, val, got, err)
		}
	})
}

// TestRecordIndependentOfMapOrder encodes one document 200 times: maps
// iterate in a different order each time, and every record must be the
// same bytes.
func TestRecordIndependentOfMapOrder(t *testing.T) {
	keys := new(keyTable)
	doc := actionDoc(7)
	doc["readings"] = []any{Doc{"x": 1, "y": 2, "z": 3}, Doc{"z": 3, "y": 2, "x": 1, "w": nil}}
	first, err := keys.encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(first.b)
	release(first)
	for i := 0; i < 200; i++ {
		rec, err := keys.encode(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.b, want) {
			t.Fatalf("encode #%d = %x, want %x", i, rec.b, want)
		}
		release(rec)
	}
	if got, err := keys.decode("x", want); err != nil || !reflect.DeepEqual(got, Doc(withID(doc, "x"))) {
		t.Fatalf("decode = %v, %v", got, err)
	}
}

// withID returns a copy of d with its _id set.
func withID(d Doc, id string) Doc {
	out := Doc{IDField: id}
	for k, v := range d {
		out[k] = v
	}
	return out
}

// fillDictionary leaves no room in keys's value dictionary: the next
// admission meets the dictBits bound. The entries already there stay
// readable; the chunks past them are never read, so they share one chunk
// (an admission that meets the bound may pad the last one).
func fillDictionary(keys *keyTable) {
	keys.mu.Lock()
	defer keys.mu.Unlock()
	last, spare := uint64(offMask/dictChunk), make([]byte, dictChunk)
	for uint64(len(keys.vals)) <= last {
		keys.vals = append(keys.vals, spare)
	}
	keys.end = offMask - 1
}

// TestFullDictionaryStillStores fills a collection's value dictionary and
// then stores documents with names, strings and shapes it has never seen:
// each is written with its shape and strings inline, and reads back as it
// went in, beside the documents stored before.
func TestFullDictionaryStillStores(t *testing.T) {
	c := NewStore().Collection("items")
	if err := c.CreateIndex("user"); err != nil {
		t.Fatal(err)
	}
	var want []Doc
	insert := func(d Doc) {
		t.Helper()
		id, err := c.Insert(d)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, withID(d, id))
	}
	for i := 0; i < 10; i++ {
		insert(actionDoc(i))
	}
	fillDictionary(&c.keys)
	for i := 10; i < 20; i++ {
		insert(actionDoc(i))
	}
	insert(Doc{"fresh": "never seen", "nested": Doc{"deeper": []any{Doc{"k": "v"}}}})
	rec, ok := c.record(want[len(want)-1][IDField].(string))
	if !ok || rec[0] != 0 {
		t.Fatalf("record of a new shape in a full dictionary = %x, want its shape inline", rec)
	}
	got := mustFind(t, c, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after filling the dictionary\n got %v\nwant %v", got, want)
	}
	if docs := mustFind(t, c, Doc{"user": "u00015"}); len(docs) != 1 || docs[0]["time"] != int64(1_700_000_000_015) {
		t.Fatalf("indexed find in a full dictionary = %v", docs)
	}
}

// TestWideDocumentShapeInline stores a document of 100 fields, whose shape
// is too long for a dictionary entry, and reads it back.
func TestWideDocumentShapeInline(t *testing.T) {
	c := NewStore().Collection("wide")
	d := Doc{}
	for i := 0; i < 100; i++ {
		d[fmt.Sprintf("f%03d", i)] = i
	}
	id, err := c.Insert(d)
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := c.record(id); rec[0] != 0 {
		t.Fatalf("record of 100 fields starts %x, want its shape inline", rec[:4])
	}
	if got, err := c.Get(id); err != nil || !reflect.DeepEqual(got, withID(d, id)) {
		t.Fatalf("Get = %v, %v", got, err)
	}
}

// TestNumericIDs checks which ids are stored as numbers: those of the form
// <collection>-<decimal> with no leading zero that fit a uint64, given or
// generated. Every id reads back as the text it was given, and a given id
// collides with a generated one of the same text.
func TestNumericIDs(t *testing.T) {
	store := NewStore()
	c := store.Collection("items")
	for i := 0; i < 3; i++ {
		if _, err := c.Insert(Doc{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	for id, numeric := range map[string]bool{
		"items-1": true, "items-7": true, "items-0": true, "items-18446744073709551615": true,
		"items-07": false, "items-": false, "items-18446744073709551616": false,
		"items-7x": false, "items--7": false, "items-+7": false, "items7": false, "item-7": false, "x": false,
	} {
		if _, err := c.Insert(Doc{IDField: id, "given": true}); err != nil {
			if id != "items-1" || !errors.Is(err, ErrDuplicateID) {
				t.Fatalf("Insert(%q) = %v", id, err)
			}
		}
		c.mu.RLock()
		_, slot := c.findLocked(id)
		if slot < 0 {
			c.mu.RUnlock()
			t.Fatalf("%q not found", id)
		}
		text, num, _, _ := c.entry(c.slots[slot])
		c.mu.RUnlock()
		if stored := len(text) == 0; stored != numeric {
			t.Errorf("%q stored as a number: %v, want %v (text %q, num %d)", id, stored, numeric, text, num)
		}
		if got, err := c.Get(id); err != nil || got[IDField] != id {
			t.Errorf("Get(%q) = %v, %v", id, got, err)
		}
		if got, err := c.Find(Doc{IDField: id}, FindOpts{}); err != nil || len(got) != 1 || got[0][IDField] != id {
			t.Errorf("Find(_id %q) = %v, %v", id, got, err)
		}
	}
	if _, err := c.Insert(Doc{IDField: "items-3"}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("Insert(items-3) after generated seq 3 = %v, want ErrDuplicateID", err)
	}
	var listed []string
	for _, d := range mustFind(t, c, nil) {
		listed = append(listed, d[IDField].(string))
	}
	if listed[0] != "items-1" || listed[2] != "items-3" || len(listed) != 3+12 {
		t.Fatalf("ids in order = %v", listed)
	}
	// A snapshot holds ids as stored; restoring it stores every id as it
	// was stored here.
	var snap bytes.Buffer
	if err := store.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	rc := restored.Collection("items")
	for _, id := range listed {
		c.mu.RLock()
		_, slot := c.findLocked(id)
		text, num, _, _ := c.entry(c.slots[slot])
		c.mu.RUnlock()
		rc.mu.RLock()
		_, rslot := rc.findLocked(id)
		var rtext []byte
		var rnum uint64
		if rslot >= 0 {
			rtext, rnum, _, _ = rc.entry(rc.slots[rslot])
		}
		rc.mu.RUnlock()
		if rslot < 0 || !bytes.Equal(rtext, text) || rnum != num {
			t.Errorf("%q restored as %q/%d, want %q/%d", id, rtext, rnum, text, num)
		}
	}
	if n, err := c.Delete(Doc{IDField: "items-7"}); err != nil || n != 1 {
		t.Fatalf("Delete(items-7) = %d, %v", n, err)
	}
	if _, err := c.Get("items-7"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(items-7) after delete = %v", err)
	}
}

// givenThenGenerated inserts an explicit items-2 and then two documents
// without an _id, the order in which a generated id used to land on the
// given one.
func givenThenGenerated(t *testing.T, c *Collection) {
	t.Helper()
	if _, err := c.Insert(Doc{IDField: "items-2", "given": true}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"items-3", "items-4"} {
		if id, err := c.Insert(Doc{"given": false}); err != nil || id != want {
			t.Fatalf("generated Insert = %q, %v; want %q", id, err, want)
		}
	}
}

// checkGivenKept checks what givenThenGenerated left: three documents, the
// given one still under its id, and the next generated id past them all.
func checkGivenKept(t *testing.T, c *Collection) {
	t.Helper()
	if n := c.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
	if d, err := c.Get("items-2"); err != nil || d["given"] != true {
		t.Fatalf("Get(items-2) = %v, %v; want the given document", d, err)
	}
	if id, err := c.Insert(Doc{}); err != nil || id != "items-5" {
		t.Fatalf("next generated Insert = %q, %v; want items-5", id, err)
	}
}

// TestGivenIDNotOverwritten: a given id of the generated form takes its
// number out of the sequence, so no generated insert replaces it.
func TestGivenIDNotOverwritten(t *testing.T) {
	c := NewStore().Collection("items")
	givenThenGenerated(t, c)
	checkGivenKept(t, c)
}

// TestGivenIDNotOverwrittenAfterReplay: the same holds for a collection
// rebuilt from its journal.
func TestGivenIDNotOverwrittenAfterReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	givenThenGenerated(t, s.Collection("items"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, info := openDurable(t, dir)
	defer s2.Close()
	if info.Replayed != 3 {
		t.Fatalf("replayed %d records, want 3", info.Replayed)
	}
	checkGivenKept(t, s2.Collection("items"))
}
