package docstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"

	"repro/internal/oatable"
	"repro/internal/wal"
)

// Records
//
// A collection keeps each document at rest as one record: bytes with no
// pointers in them, in the collection's slabs (slabs.go), so the collector
// never looks inside a stored document and a document costs about its own
// size. A Doc exists only while a caller or the matcher holds one.
//
//	record := doc
//	doc    := shape { payload }
//	shape  := uvarint(dictionary offset + 1)
//	        | uvarint(0) uvarint(len) pairs
//	pairs  := { uvarint(key ref) kind }
//	value  := kind payload
//
// A document's shape is its fields' (key ref, kind) pairs, sorted by key
// ref; its payloads follow in the same order with neither. A key ref
// indexes the collection's keyTable, so a field name is stored once per
// collection, not once per record. The shape itself is kept once per
// collection too, as an entry of the keyTable's value dictionary, beside
// every string of at most symMax bytes (written as its offset there,
// kindSym); documents that share their field names and kinds share one
// shape. A shape longer than entryMax, or one met while the dictionary is
// full, is written inline instead. Sorting by key ref makes a document's
// record independent of the order its map is iterated in. A nested
// document carries its own shape; an array element, and the single value
// encodeValue writes, keeps its kind byte. The top-level _id is not in the
// record: it is the id the record is filed under, and decode puts it back.
// The kind preserves the Go kind, so a document reads back with the types
// it was stored with (an int64 stays an int64); the payload of each kind is
//
//	nil, false, true                  nothing
//	int, int32, int64                 zig-zag varint
//	uint, uint32, uint64              uvarint
//	float32, float64                  IEEE 754 bits, little endian
//	string of 1 to symMax bytes       uvarint(dictionary offset) (kindSym)
//	longer, with integer arrays       see Integer arrays (kindArrays)
//	any other string                  uvarint(len) bytes
//	[]any                             uvarint(len) value...
//	map[string]any                    doc
//
// Nothing else can be stored; encode reports the field path and Go type of
// anything else. Nil containers read back empty.
const (
	kindNil byte = iota
	kindFalse
	kindTrue
	kindInt
	kindInt32
	kindInt64
	kindUint
	kindUint32
	kindUint64
	kindFloat32
	kindFloat64
	kindString
	kindArray
	kindDoc
	kindSym
	kindArrays
)

// maxDepth bounds container nesting, which turns a self-referencing
// document into an error instead of a stack overflow.
const maxDepth = 10000

var errCorruptRecord = errors.New("corrupt record")

// valueError reports a value a record cannot hold.
type valueError struct {
	path string // from the document root; empty for the value itself
	what string
	deep bool // nesting error: the path would be maxDepth segments long, so none is kept
}

func (e *valueError) Error() string {
	if e.path == "" {
		return e.what
	}
	return fmt.Sprintf("field %q: %s", e.path, e.what)
}

func errTooDeep() *valueError {
	return &valueError{what: fmt.Sprintf("nested deeper than %d", maxDepth), deep: true}
}

// under prefixes the path with the container's key or "[index]".
func (e *valueError) under(seg string) *valueError {
	switch {
	case e.deep:
	case e.path == "" || e.path[0] == '[':
		e.path = seg + e.path
	default:
		e.path = seg + "." + e.path
	}
	return e
}

// keyTable interns the field names, the document shapes and the short
// string values of one collection. It has its own lock (a leaf: nothing is
// acquired under it) so records are encoded before the collection lock is
// taken. Nothing is ever removed, so a ref stays valid for the life of the
// collection.
//
// Shapes and values share one dictionary with no Go object per entry:
// fixed-size byte chunks of uvarint(len) bytes entries, addressed by byte
// offset, and an open-addressed table (internal/oatable) from entry bytes to
// offset+1 and a hash tag. An entry is only bytes, so a shape and a string
// with the same bytes are one entry. A chunk is allocated at its full
// length and written by copy, never grown, so a reader holding an older
// view of vals can read its entries while a writer fills the same chunk
// further on.
type keyTable struct {
	mu    sync.RWMutex
	refs  map[string]uint64
	names []string

	seed  maphash.Seed // set with the first entry
	vals  [][]byte     // dictionary chunks of dictChunk bytes
	end   uint64       // offset of the next entry
	nvals int
	cells oatable.Table // entry bytes → hash tag | offset+1
}

const (
	// symMax is the longest string value kept in the dictionary: ids and
	// labels fit, sensor payloads (a location fix is about 64 B) do not.
	symMax = 32
	// entryMax is the longest dictionary entry, so its length is a one-byte
	// uvarint: a shape of up to about 60 fields.
	entryMax = 127
	// padMark, never an entry's length, fills the byte after a chunk's last
	// entry when the next one does not fit, so the dictionary reads back
	// entry by entry (appendDict, applyDict).
	padMark   = 0xFF
	dictChunk = 4 << 10
	// dictBits bounds the dictionary at 64 MiB. A value table cell holds
	// the entry's offset+1 in its low dictBits bits and the top bits of the
	// entry's hash above them, so a probe compares bytes only where those
	// agree.
	dictBits = 26
	offMask  = 1<<dictBits - 1
	// valueLoad bounds the value table at ⅞ (in eighths): it misses once
	// per distinct value, at admission, and when no value repeats it is all
	// overhead.
	valueLoad = 7
)

// cellTag is the part of a value table cell that comes from the hash.
func cellTag(h uint64) uint32 { return uint32(h>>(32+dictBits)) << dictBits }

// symbol returns the dictionary offset of s, if s is there, and the hash
// admitLocked files s under if not. The caller holds mu, shared or
// exclusive.
//
//sensolint:hotpath
func (t *keyTable) symbol(s string) (off, h uint64, ok bool) {
	if len(t.cells) == 0 {
		return 0, 0, false // no seed yet: admitLocked makes one
	}
	h = maphash.String(t.seed, s)
	off, ok = t.find(h, func(e []byte) bool { return string(e) == s })
	return off, h, ok
}

// shape is symbol for a shape's bytes.
//
//sensolint:hotpath
func (t *keyTable) shape(b []byte) (off, h uint64, ok bool) {
	if len(t.cells) == 0 {
		return 0, 0, false
	}
	h = maphash.Bytes(t.seed, b)
	off, ok = t.find(h, func(e []byte) bool { return bytes.Equal(e, b) })
	return off, h, ok
}

// find returns the offset of the entry hashed to h that eq accepts.
func (t *keyTable) find(h uint64, eq func(e []byte) bool) (uint64, bool) {
	tag := cellTag(h)
	_, v := t.cells.Probe(h, func(v uint32) bool {
		return v&^offMask == tag && eq(t.entry(uint64(v&offMask-1)))
	})
	return uint64(v&offMask) - 1, v != 0
}

// entry returns the bytes of the entry at off, which admitLocked wrote.
func (t *keyTable) entry(off uint64) []byte {
	c, i := t.vals[off/dictChunk], off%dictChunk
	return c[i+1 : i+1+uint64(c[i])]
}

// admitLocked adds s, at most entryMax bytes that symbol or shape did not
// find and hashed to h, to the dictionary and returns its offset; false if
// the dictionary is full. The caller holds mu exclusive.
func (t *keyTable) admitLocked(s string, h uint64) (uint64, bool) {
	size := uint64(1 + len(s)) // a one-byte uvarint length, then s
	off := t.end
	if off%dictChunk+size > dictChunk { // an entry never straddles chunks
		t.vals[off/dictChunk][off%dictChunk] = padMark
		off += dictChunk - off%dictChunk
	}
	if off+size >= offMask {
		return 0, false
	}
	if off/dictChunk == uint64(len(t.vals)) {
		t.vals = append(t.vals, make([]byte, dictChunk))
	}
	c := t.vals[off/dictChunk][off%dictChunk:]
	c[0] = byte(len(s))
	copy(c[1:], s)
	t.end = off + size

	if t.nvals == 0 {
		t.seed = maphash.MakeSeed()
		h = maphash.String(t.seed, s)
	}
	if t.cells.Crowded(t.nvals+1, valueLoad) {
		old := t.cells
		t.cells = make(oatable.Table, oatable.Size(t.nvals+1, valueLoad))
		for _, v := range old {
			if v != 0 {
				t.cells.Place(maphash.Bytes(t.seed, t.entry(uint64(v&offMask-1))), v)
			}
		}
	}
	t.cells.Place(h, cellTag(h)|uint32(off+1))
	t.nvals++
	return off, true
}

// recBuf is an encode buffer: a record is built in b and copied into a
// slab, so append's growth slack is never kept per document. shape and doc
// are appendDoc's scratch for the shape and the reordered fields of the
// document it is finishing.
type recBuf struct {
	b     []byte
	shape []byte
	doc   []byte
	vals  []int64     // appendArrays' scratch: the values of spans
	spans []arraySpan // and the arrays that hold them
}

// stackFields is how many fields appendDoc keeps track of in arrays on its
// own stack; a wider document takes slices from the heap.
const stackFields = 12

var scratch = sync.Pool{New: func() any { return new(recBuf) }}

// encode builds doc's record in a scratch buffer; the caller hands it back
// with release once the record is in a slab.
func (t *keyTable) encode(doc Doc) (*recBuf, error) {
	rb := scratch.Get().(*recBuf)
	e := encoder{t: t, s: rb}
	var verr *valueError
	for more := true; more; more = e.again(verr) {
		e.lock()
		rb.b, verr = e.appendDoc(rb.b[:0], doc, 0)
		e.unlock()
	}
	if verr != nil {
		release(rb)
		return nil, verr
	}
	return rb, nil
}

func release(rb *recBuf) {
	rb.b = rb.b[:0]
	scratch.Put(rb)
}

// encodeValue returns the value headed for path in record form, or the
// reason a record cannot hold it.
func (t *keyTable) encodeValue(path string, v any) ([]byte, error) {
	rb := scratch.Get().(*recBuf)
	defer release(rb)
	e := encoder{t: t, s: rb}
	var verr *valueError
	for more := true; more; more = e.again(verr) {
		e.lock()
		rb.b, verr = e.appendValue(rb.b[:0], v, 1)
		e.unlock()
	}
	if verr != nil {
		return nil, verr.under(path)
	}
	return bytes.Clone(rb.b), nil
}

// encoder appends record bytes against a keyTable. A record is encoded
// with the table's lock held once, shared. The first name, shape or short
// string the table lacks sets missed and ends that pass, and only then is
// the record encoded a second time, with the lock held exclusive and admit
// set, adding what is new. (Trading the shared lock for the exclusive one
// in mid-record would keep what the first pass wrote, but would lock the
// table inside a call made under its own lock.)
type encoder struct {
	t      *keyTable
	s      *recBuf
	admit  bool
	missed bool
}

func (e *encoder) lock() {
	if e.admit {
		e.t.mu.Lock()
	} else {
		e.t.mu.RLock()
	}
}

func (e *encoder) unlock() {
	if e.admit {
		e.t.mu.Unlock()
	} else {
		e.t.mu.RUnlock()
	}
}

// again reports whether the pass that ended with verr must be redone
// admitting what it missed, and switches to admitting if so.
func (e *encoder) again(verr *valueError) bool {
	if verr != nil || !e.missed || e.admit {
		return false
	}
	e.admit, e.missed = true, false
	return true
}

// name returns the ref of a field name.
func (e *encoder) name(k string) uint64 {
	if r, ok := e.t.refs[k]; ok || !e.admit {
		e.missed = e.missed || !ok
		return r
	}
	return e.t.addNameLocked(k)
}

// addNameLocked gives k the next key ref. The caller holds mu exclusive.
func (t *keyTable) addNameLocked(k string) uint64 {
	if t.refs == nil {
		t.refs = make(map[string]uint64)
	}
	r := uint64(len(t.names))
	t.names = append(t.names, k)
	t.refs[k] = r
	return r
}

// symbol returns the dictionary offset of a short string, or false if it
// is to be written inline.
func (e *encoder) symbol(s string) (uint64, bool) {
	off, h, ok := e.t.symbol(s)
	if ok || !e.admit {
		e.missed = e.missed || !ok
		return off, ok
	}
	return e.t.admitLocked(s, h)
}

// shape returns the dictionary offset of a shape, or false if it is to be
// written inline.
func (e *encoder) shape(b []byte) (uint64, bool) {
	if len(b) > entryMax {
		return 0, false
	}
	off, h, ok := e.t.shape(b)
	if ok || !e.admit {
		e.missed = e.missed || !ok
		return off, ok
	}
	return e.t.admitLocked(string(b), h)
}

// appendDoc appends d's shape and then its payloads in key ref order. The
// payloads are written in the order the map yields its fields, which is
// random, and the shape is known only once they are written, so the
// document is put in order last, behind its shape.
func (e *encoder) appendDoc(buf []byte, d Doc, depth int) ([]byte, *valueError) {
	var orderAt [stackFields]uint64
	var startAt [stackFields + 1]int
	var kindAt [stackFields]byte
	// order holds key ref<<32 | i for the i-th field written; its payload
	// is buf[starts[i]:starts[i+1]] and its kind kinds[i].
	order, starts, kinds := orderAt[:0], startAt[:0], kindAt[:0]
	if len(d) > stackFields {
		order, starts, kinds = make([]uint64, 0, len(d)), make([]int, 0, len(d)+1), make([]byte, 0, len(d))
	}
	start := len(buf)
	for k, v := range d {
		if depth == 0 && k == IDField {
			continue
		}
		ref := e.name(k)
		if e.missed {
			return buf, nil // the exclusive pass starts over
		}
		order = append(order, ref<<32|uint64(len(order)))
		starts = append(starts, len(buf))
		var kind byte
		var verr *valueError
		if buf, kind, verr = e.appendPayload(buf, v, depth+1); verr != nil {
			return buf, verr.under(k)
		}
		if e.missed {
			return buf, nil
		}
		kinds = append(kinds, kind)
	}
	starts = append(starts, len(buf))
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j] < order[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	shape := e.s.shape[:0]
	for _, o := range order {
		shape = append(binary.AppendUvarint(shape, o>>32), kinds[uint32(o)])
	}
	e.s.shape = shape
	out := e.s.doc[:0]
	if off, ok := e.shape(shape); ok {
		out = binary.AppendUvarint(out, off+1)
	} else {
		out = append(binary.AppendUvarint(append(out, 0), uint64(len(shape))), shape...)
	}
	for _, o := range order {
		out = append(out, buf[starts[uint32(o)]:starts[uint32(o)+1]]...)
	}
	e.s.doc = out
	return append(buf[:start], out...), nil
}

// appendValue appends v with its kind byte.
func (e *encoder) appendValue(buf []byte, v any, depth int) ([]byte, *valueError) {
	at := len(buf)
	buf, kind, verr := e.appendPayload(append(buf, 0), v, depth)
	buf[at] = kind
	return buf, verr
}

// appendPayload appends v's payload and returns the kind it wrote.
func (e *encoder) appendPayload(buf []byte, v any, depth int) ([]byte, byte, *valueError) {
	switch x := v.(type) {
	case nil:
		return buf, kindNil, nil
	case bool:
		if x {
			return buf, kindTrue, nil
		}
		return buf, kindFalse, nil
	case int:
		return binary.AppendVarint(buf, int64(x)), kindInt, nil
	case int32:
		return binary.AppendVarint(buf, int64(x)), kindInt32, nil
	case int64:
		return binary.AppendVarint(buf, x), kindInt64, nil
	case uint:
		return binary.AppendUvarint(buf, uint64(x)), kindUint, nil
	case uint32:
		return binary.AppendUvarint(buf, uint64(x)), kindUint32, nil
	case uint64:
		return binary.AppendUvarint(buf, x), kindUint64, nil
	case float32:
		return binary.LittleEndian.AppendUint32(buf, math.Float32bits(x)), kindFloat32, nil
	case float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(x)), kindFloat64, nil
	case string:
		if 0 < len(x) && len(x) <= symMax {
			if off, ok := e.symbol(x); ok {
				return binary.AppendUvarint(buf, off), kindSym, nil
			}
		}
		if len(x) > symMax {
			if packed, ok := e.appendArrays(buf, x); ok {
				return packed, kindArrays, nil
			}
		}
		return append(binary.AppendUvarint(buf, uint64(len(x))), x...), kindString, nil
	case []any:
		if depth > maxDepth {
			return buf, kindArray, errTooDeep()
		}
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		for i, el := range x {
			var verr *valueError
			if buf, verr = e.appendValue(buf, el, depth+1); verr != nil {
				return buf, kindArray, verr.under(fmt.Sprintf("[%d]", i))
			}
			if e.missed {
				break
			}
		}
		return buf, kindArray, nil
	case map[string]any:
		if depth > maxDepth {
			return buf, kindDoc, errTooDeep()
		}
		buf, verr := e.appendDoc(buf, x, depth)
		return buf, kindDoc, verr
	default:
		return buf, kindNil, &valueError{what: fmt.Sprintf("unsupported value type %T", v)}
	}
}

// Integer arrays
//
// A raw sensor window arrives as JSON integer arrays (sensors.AccelReading,
// in milli-m/s²), and its digits are most of what a stored item weighs. A
// string longer than symMax that holds an array of at least arrayMin
// integers, each canonical (0 or -?[1-9][0-9]*, within int64) so that the
// text comes back byte for byte, is stored with every such array bit packed
// against its minimum (frame of reference, kindArrays):
//
//	arrays := uvarint(len) uvarint(count) { uvarint(gap) gap-bytes array } uvarint(tail) tail-bytes
//	array  := uvarint(n) varint(min) width bits
//
// gap is the text between one array and the next one's '[', tail the text
// after the last ']'; brackets and commas are implied. bits holds each value
// less min in width = bits.Len64(max−min) bits, least significant first,
// and pads the last byte with zeros. A string is stored this way only when
// that is smaller than inline, and only up to arraysMax bytes, which bounds
// what a corrupt record can make the decoder write.
const (
	arrayMin  = 8
	arraysMax = 16 << 20 // MongoDB's document size limit
)

// arraySpan is an array appendArrays packs: s[at:end], brackets included,
// holding n values.
type arraySpan struct{ at, end, n int }

// appendArrays appends s as a kindArrays payload, or returns buf as it was
// and false. Each value is parsed once, into the recBuf's scratch.
//
//sensolint:hotpath
func (e *encoder) appendArrays(buf []byte, s string) ([]byte, bool) {
	if len(s) > arraysMax {
		return buf, false
	}
	vals, spans := e.s.vals[:0], e.s.spans[:0]
	for i := 0; ; {
		k := strings.IndexByte(s[i:], '[')
		if k < 0 {
			break
		}
		i += k + 1
		end, more := scanArray(s, i, vals)
		if n := len(more) - len(vals); end > 0 && n >= arrayMin {
			spans = append(spans, arraySpan{i - 1, end, n})
			vals, i = more, end
		}
	}
	e.s.vals, e.s.spans = vals, spans
	if len(spans) == 0 {
		return buf, false
	}
	mark := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	inline := len(buf) - mark + len(s)
	buf = binary.AppendUvarint(buf, uint64(len(spans)))
	prev := 0
	for _, a := range spans {
		buf = append(binary.AppendUvarint(buf, uint64(a.at-prev)), s[prev:a.at]...)
		vs := vals[:a.n]
		vals, prev = vals[a.n:], a.end
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			lo, hi = min(lo, v), max(hi, v)
		}
		width := bits.Len64(uint64(hi) - uint64(lo))
		buf = append(binary.AppendVarint(binary.AppendUvarint(buf, uint64(a.n)), lo), byte(width))
		var acc uint64 // the low n bits are not written yet
		n := 0
		for _, v := range vs {
			d := uint64(v) - uint64(lo)
			acc |= d << n
			if n += width; n >= 64 {
				buf = binary.LittleEndian.AppendUint64(buf, acc)
				n -= 64
				acc = d >> (width - n)
			}
		}
		for ; n > 0; n -= 8 {
			buf = append(buf, byte(acc))
			acc >>= 8
		}
	}
	buf = append(binary.AppendUvarint(buf, uint64(len(s)-prev)), s[prev:]...)
	if len(buf)-mark >= inline {
		return buf[:mark], false
	}
	return buf, true
}

// scanArray appends to vals the canonical integers of the array whose '['
// is s[i-1]. end is the index past its ']', or 0 if the array does not end
// there or holds anything else.
//
//sensolint:hotpath
func scanArray(s string, i int, vals []int64) (end int, _ []int64) {
	for i < len(s) {
		neg := s[i] == '-'
		if neg {
			i++
		}
		at := i
		var u uint64
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			u = u*10 + uint64(s[i]-'0') // wraps past 19 digits, which fail below
		}
		switch {
		case i == at, i-at > 19, s[at] == '0' && (i > at+1 || neg), i == len(s),
			neg && u > 1<<63, !neg && u > math.MaxInt64:
			return 0, vals
		}
		if neg {
			u = -u
		}
		vals = append(vals, int64(u))
		switch s[i] {
		case ']':
			return i + 1, vals
		case ',':
			i++
		default:
			return 0, vals
		}
	}
	return 0, vals
}

// decode rebuilds the document filed under id as a fresh Doc sharing
// nothing with the record. It fails, never panics, on bytes encode did not
// write.
func (t *keyTable) decode(id string, rec []byte) (Doc, error) {
	r := t.reader(rec)
	d := r.doc(1, 0)
	if r.Bad() || r.Len() != 0 {
		return nil, errCorruptRecord
	}
	d[IDField] = id
	return d, nil
}

func (t *keyTable) reader(b []byte) recordReader {
	// Names and values are append-only, so this view holds every ref that
	// bytes already written can carry.
	t.mu.RLock()
	defer t.mu.RUnlock()
	return recordReader{RecordReader: wal.NewRecordReader(b), names: t.names, vals: t.vals, end: t.end}
}

// recordReader reads a record front to back (wal.RecordReader) against a
// view of its collection's dictionary.
type recordReader struct {
	wal.RecordReader
	names []string
	vals  [][]byte
	end   uint64 // the dictionary's length in this view
}

// doc reads a shape and the payloads it lists into a map with room for
// extra more fields.
func (r *recordReader) doc(extra, depth int) Doc {
	var shape []byte
	if ref := r.Uvarint(); ref == 0 {
		shape = r.Take(r.Uvarint())
	} else {
		shape = r.entry(ref - 1)
	}
	n, ok := r.fields(shape)
	if !ok {
		r.Fail()
		return nil
	}
	d := make(Doc, n+extra)
	for len(shape) > 0 && !r.Bad() {
		ref, k := binary.Uvarint(shape)
		kind := shape[k]
		shape = shape[k+1:]
		d[r.names[ref]] = r.payload(kind, depth+1)
	}
	return d
}

// fields counts the pairs of a shape, which must name known keys in
// ascending order, each with a kind.
func (r *recordReader) fields(shape []byte) (n int, ok bool) {
	for prev := -1; len(shape) > 0; n++ {
		ref, k := binary.Uvarint(shape)
		if k <= 0 || k >= len(shape) || ref >= uint64(len(r.names)) || int(ref) <= prev || shape[k] > kindArrays {
			return 0, false
		}
		prev, shape = int(ref), shape[k+1:]
	}
	return n, true
}

// entry returns the dictionary entry at off, sharing its bytes. It reads
// nothing at or past end: bytes there may be being written.
func (r *recordReader) entry(off uint64) []byte {
	if off < r.end {
		base := off / dictChunk * dictChunk
		c := r.vals[off/dictChunk][off-base : min(r.end-base, dictChunk)]
		if n, k := binary.Uvarint(c); k > 0 && n <= uint64(len(c)-k) {
			return c[k : k+int(n)]
		}
	}
	r.Fail()
	return nil
}

// arrays reads a kindArrays payload into one fresh string. It fails on a
// width over 64, a count or bits past the record, pad bits that are not
// zero, a gap or tail past the record, or text that does not come to the
// declared length.
func (r *recordReader) arrays() string {
	n, m := r.Uvarint(), r.Uvarint()
	if n > arraysMax {
		r.Fail()
		return ""
	}
	var sb strings.Builder
	// A window's text is about 2.5 times its record; a more compressible
	// string, or a length that lies, grows the builder as it goes.
	sb.Grow(int(min(n, 4*uint64(r.Len()))))
	var out [256]byte
	for ; m > 0 && !r.Bad(); m-- {
		sb.Write(r.Take(r.Uvarint()))
		count, lo, width := r.Uvarint(), r.Varint(), r.Take(1)
		if at := uint64(sb.Len()); width == nil || width[0] > 64 || at > n || count > (n-at)/2 {
			r.Fail()
			return ""
		}
		w := int(width[0])
		packed := r.Take((count*uint64(w) + 7) / 8)
		text := append(out[:0], '[')
		var acc uint64 // the low have bits are not read yet
		have := 0
		for i := uint64(0); i < count && !r.Bad(); i++ {
			var d uint64
			for got := 0; got < w; got += 32 { // at most 32 bits at a time, so acc never overflows
				k := min(w-got, 32)
				for ; have < k; have += 8 {
					acc |= uint64(packed[0]) << have
					packed = packed[1:]
				}
				d |= acc & (1<<k - 1) << got
				acc, have = acc>>k, have-k
			}
			if len(text) > len(out)-22 { // room for a comma, a 20-byte integer and the closing bracket
				sb.Write(text)
				text = out[:0]
			}
			if i > 0 {
				text = append(text, ',')
			}
			text = strconv.AppendInt(text, int64(uint64(lo)+d), 10)
		}
		if acc != 0 {
			r.Fail()
		}
		sb.Write(append(text, ']'))
	}
	sb.Write(r.Take(r.Uvarint()))
	if r.Bad() || uint64(sb.Len()) != n {
		r.Fail()
		return ""
	}
	return sb.String()
}

// value reads a kind byte and its payload.
func (r *recordReader) value(depth int) any {
	kind := r.Take(1)
	if kind == nil {
		return nil
	}
	return r.payload(kind[0], depth)
}

// payload reads a payload of the given kind.
func (r *recordReader) payload(kind byte, depth int) any {
	switch kind {
	case kindNil:
		return nil
	case kindFalse:
		return false
	case kindTrue:
		return true
	case kindInt:
		return int(r.Varint())
	case kindInt32:
		return int32(r.Varint())
	case kindInt64:
		return r.Varint()
	case kindUint:
		return uint(r.Uvarint())
	case kindUint32:
		return uint32(r.Uvarint())
	case kindUint64:
		return r.Uvarint()
	case kindFloat32:
		if p := r.Take(4); p != nil {
			return math.Float32frombits(binary.LittleEndian.Uint32(p))
		}
	case kindFloat64:
		if p := r.Take(8); p != nil {
			return math.Float64frombits(binary.LittleEndian.Uint64(p))
		}
	case kindString:
		return r.Text()
	case kindSym:
		return string(r.entry(r.Uvarint()))
	case kindArrays:
		return r.arrays()
	case kindArray:
		n := r.Uvarint()
		if n > uint64(r.Len()) || depth > maxDepth { // an element is at least a kind
			break
		}
		arr := make([]any, n)
		for i := 0; i < len(arr) && !r.Bad(); i++ {
			arr[i] = r.value(depth + 1)
		}
		return arr
	case kindDoc:
		if depth <= maxDepth {
			return r.doc(0, depth)
		}
	}
	r.Fail()
	return nil
}
