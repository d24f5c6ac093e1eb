package docstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// docGen turns fuzz bytes into nested documents of every storable kind. Its
// strings run from 0 to 64 bytes, either side of symMax, and it reuses the
// ones it has made, so documents share dictionary values. Its numeric text
// runs from 33 to 2 000 bytes, some pure and some mixed with other bytes,
// so it is packed or written inline depending on the mix.
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

// numeric returns 33 to 2 000 bytes drawn from packAlphabet, each replaced
// by an arbitrary byte with odds set by the fuzz input (none at all for a
// zero). A few input bytes seed the text, so long strings cost little input.
func (g *docGen) numeric() string {
	n := 33 + int(uint16(g.next())<<8|uint16(g.next()))%1968
	mixed := int(g.next())
	h := g.u64()
	b := make([]byte, n)
	for i := range b {
		h = h*6364136223846793005 + 1442695040888963407
		x := h >> 33
		b[i] = packAlphabet[x%uint64(len(packAlphabet))]
		if int(x>>8&0xff) < mixed {
			b[i] = byte(x >> 16)
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
	f.Add([]byte{3, 1, 10, 1, 40, 2, 1, 11, 0, 3, 1, 10, 0, 0})
	f.Add([]byte{1, 0, 13, 7, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}) // pure numeric text
	f.Add([]byte{2, 1, 13, 1, 200, 60, 9, 9, 9, 9, 9, 9, 9, 9, 0, 13, 0, 40, 255, 1, 2})
	for _, rec := range packedCorrupt {
		f.Add(rec)
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
			recs[i] = *rec
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
// 0..n-1.
func tableWithNames(n int) *keyTable {
	keys := new(keyTable)
	for i := 0; i < n; i++ {
		rec, err := keys.encode(Doc{fmt.Sprintf("k%d", i): nil})
		if err != nil {
			panic(err)
		}
		release(rec)
	}
	return keys
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
	if got, err := one.decode("x", *rec); err != nil || got["k0"] != "ab" {
		t.Fatalf("decode = %v, %v", got, err)
	}
	for _, tc := range []struct {
		keys *keyTable
		rec  []byte
	}{
		{empty, []byte{1, 0, kindSym, 0}},
		{one, []byte{1, 0, kindSym, 3}},                      // the first byte past "ab"
		{one, []byte{1, 0, kindSym, 0xff, 0x0f}},             // inside chunk 0, past the end
		{one, []byte{1, 0, kindSym, 0x80, 0x20}},             // offset 4096: chunk 1
		{one, []byte{1, 0, kindSym, 0xff, 0xff, 0xff, 0x7f}}, // far past
	} {
		if d, err := tc.keys.decode("x", tc.rec); err != errCorruptRecord {
			t.Errorf("decode(%x) = %v, %v; want errCorruptRecord", tc.rec, d, err)
		}
		if v, err := tc.keys.decodeValue(tc.rec[2:]); err != errCorruptRecord {
			t.Errorf("decodeValue(%x) = %v, %v; want errCorruptRecord", tc.rec[2:], v, err)
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
// entry in a slab (record and id), its slot, its share of the id table and
// of the value dictionary. The bound is the 385 B/doc it reads plus 10 %
// (434 B/doc before short strings went to the dictionary).
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
	if perDoc > 424 {
		t.Fatalf("%d inserts retain %.0f B/doc, want <= 424", n, perDoc)
	}
	runtime.KeepAlive(c)
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
	// written as kindPacked. The window's record is the larger, so a fresh
	// scratch buffer grows more times to hold it, and the race detector
	// drops sync.Pool puts by design: there it is left out.
	docs := []Doc{itemDoc(1), itemDoc(7)}
	if raceEnabled {
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

// packedCorrupt are records of one kindPacked field (ref 0) that do not
// decode: codes that run past the record, an escape cut off at the end,
// and codes that hold more than the declared length.
var packedCorrupt = [][]byte{
	{1, 0, kindPacked, 40, 0x12, 0x34},               // 40 bytes declared, 4 codes present
	{1, 0, kindPacked, 4, 0xf4, 0x1f, 0x42},          // two escapes, then nothing for the other two bytes
	{1, 0, kindPacked, 2, 0x1f},                      // '1', then an escape with no byte after it
	{1, 0, kindPacked, 3, 0x12, 0x34},                // "123", then a 4 where the padding goes
	{1, 0, kindPacked, 0xff, 0xff, 0xff, 0xff, 0x0f}, // a length far past the record, no codes
}

func TestPackedValueCorrupt(t *testing.T) {
	keys := tableWithNames(1)
	if got, err := keys.decode("x", []byte{1, 0, kindPacked, 3, 0x12, 0x30}); err != nil || got["k0"] != "123" {
		t.Fatalf("decode of a well-formed packed value = %v, %v; want k0 = 123", got, err)
	}
	if got, err := keys.decode("x", []byte{1, 0, kindPacked, 2, 0xf4, 0x1d}); err != nil || got["k0"] != `A"` {
		t.Fatalf("decode of an escape = %v, %v; want k0 = A\"", got, err)
	}
	for _, rec := range packedCorrupt {
		if d, err := keys.decode("x", rec); err != errCorruptRecord {
			t.Errorf("decode(%x) = %v, %v; want errCorruptRecord", rec, d, err)
		}
		if v, err := keys.decodeValue(rec[2:]); err != errCorruptRecord {
			t.Errorf("decodeValue(%x) = %v, %v; want errCorruptRecord", rec[2:], v, err)
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
// come to at most 55 % of its payload's text, and read back as written.
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
		if len(*rec) > len(raw)*55/100 {
			t.Fatalf("a %d-byte payload takes a %d-byte record, want <= 55 %%", len(raw), len(*rec))
		}
		recBytes, textBytes = recBytes+len(*rec), textBytes+len(raw)
		got, err := keys.decode("x", *rec)
		release(rec)
		if err != nil || !reflect.DeepEqual(got, doc) {
			t.Fatalf("round trip of payload %d = %v, %v", i, got, err)
		}
	}
	t.Logf("%d payload bytes in %d record bytes (%.1f %%)", textBytes, recBytes, 100*float64(recBytes)/float64(textBytes))
}

// TestLetterHeavyStringsStayInline checks that strings over symMax bytes
// that are mostly letters are written as kindString, byte for byte as
// before kindPacked existed, and that the packing margin is where
// maxEscapes puts it.
func TestLetterHeavyStringsStayInline(t *testing.T) {
	const n = 51
	e := maxEscapes(n) // 12: (51 + 2·12 + 1) / 2 = 38 = 51·3/4
	keys := tableWithNames(1)
	for _, s := range []string{
		`{"lat":48.85661,"lon":2.35222,"accuracy_m":12,"fix_seconds":1.5}`,
		"the quick brown fox jumps over the lazy dog",
		strings.Repeat("-", n-e-1) + strings.Repeat("x", e+1), // one escape too many
	} {
		rec, err := keys.encode(Doc{"k0": s})
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte{1, 0, kindString, byte(len(s))}, s...)
		if !reflect.DeepEqual(*rec, want) {
			t.Errorf("%q stored as %x, want inline %x", s, *rec, want)
		}
		release(rec)
	}
	s := strings.Repeat("-", n-e) + strings.Repeat("x", e)
	rec, err := keys.encode(Doc{"k0": s})
	if err != nil {
		t.Fatal(err)
	}
	if (*rec)[2] != kindPacked || len(*rec)-4 != n*3/4 {
		t.Errorf("%q stored as %x, want kindPacked in %d code bytes", s, *rec, n*3/4)
	}
	release(rec)
}
