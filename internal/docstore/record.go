package docstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
	"sync"
)

// Records
//
// A collection keeps each document at rest as one record: bytes with no
// pointers in them, in the collection's slabs (slabs.go), so the collector
// never looks inside a stored document and a document costs about its own
// size. A Doc exists only while a caller or the matcher holds one.
//
//	record := doc
//	doc    := uvarint(fields) { uvarint(key ref) value }
//	value  := kind [payload]
//
// A key ref indexes the collection's keyTable, so a field name is stored
// once per collection, not once per record; so is a string of at most
// symMax bytes, kept in the keyTable's value dictionary and written as its
// offset there (kindSym). The top-level _id is not in the record: it is the
// id the record is filed under, and decode puts it back.
// The kind byte preserves the Go kind, so a document reads back with the
// types it was stored with (an int64 stays an int64):
//
//	nil, false, true                  no payload
//	int, int32, int64                 zig-zag varint
//	uint, uint32, uint64              uvarint
//	float32, float64                  IEEE 754 bits, little endian
//	string of 1 to symMax bytes       uvarint(dictionary offset) (kindSym)
//	longer string, mostly numeric     uvarint(len) codes (kindPacked)
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
	kindPacked
)

// maxDepth bounds container nesting at what encoding/json accepts: a deeper
// document could not come back from a journal or snapshot anyway, and the
// bound turns a self-referencing document into an error instead of a stack
// overflow.
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

// keyTable interns the field names and the short string values of one
// collection. It has its own lock (a leaf: nothing is acquired under it) so
// records are encoded before the collection lock is taken. Nothing is ever
// removed, so a ref stays valid for the life of the collection.
//
// The values are a dictionary with no Go object per entry: fixed-size byte
// chunks of uvarint(len) bytes entries, addressed by byte offset, and an
// open-addressed table (table.go) from value to offset+1 and a hash tag. A
// chunk is allocated at its full length and written by copy, never grown,
// so a reader holding an older view of vals can read its entries while a
// writer fills the same chunk further on.
type keyTable struct {
	mu    sync.RWMutex
	refs  map[string]uint64
	names []string

	seed  maphash.Seed // set with the first value
	vals  [][]byte     // dictionary chunks of dictChunk bytes
	end   uint64       // offset of the next entry
	nvals int
	cells table // value → hash tag | offset+1
}

const (
	// symMax is the longest string kept in the dictionary: ids and labels
	// fit, sensor payloads (a location fix is about 64 B) do not.
	symMax    = 32
	dictChunk = 4 << 10
	// dictBits bounds the dictionary at 64 MiB. A value table cell holds
	// the entry's offset+1 in its low dictBits bits and the top bits of the
	// value's hash above them, so a probe compares bytes only where those
	// agree.
	dictBits = 26
	offMask  = 1<<dictBits - 1
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
	tag := cellTag(h)
	_, v := t.cells.probe(h, func(v uint32) bool {
		return v&^offMask == tag && string(t.entry(uint64(v&offMask-1))) == s
	})
	return uint64(v&offMask) - 1, h, v != 0
}

// entry returns the bytes of the value at off, which admitLocked wrote.
func (t *keyTable) entry(off uint64) []byte {
	c, i := t.vals[off/dictChunk], off%dictChunk
	return c[i+1 : i+1+uint64(c[i])]
}

// admitLocked adds s, which symbol did not find and hashed to h, to the
// dictionary and returns its offset; false if the dictionary is full. The
// caller holds mu exclusive.
func (t *keyTable) admitLocked(s string, h uint64) (uint64, bool) {
	size := uint64(1 + len(s)) // a one-byte uvarint length, then s
	off := t.end
	if off%dictChunk+size > dictChunk { // an entry never straddles chunks
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
	if t.cells.crowded(t.nvals+1, valueLoad) {
		old := t.cells
		t.cells = make(table, tableSize(t.nvals+1, valueLoad))
		for _, v := range old {
			if v != 0 {
				t.cells.place(maphash.Bytes(t.seed, t.entry(uint64(v&offMask-1))), v)
			}
		}
	}
	t.cells.place(h, cellTag(h)|uint32(off+1))
	t.nvals++
	return off, true
}

// scratch holds encode buffers: a record is built in one and copied into a
// slab, so append's growth slack is never kept per document.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// encode builds doc's record in a scratch buffer; the caller hands it back
// with release once the record is in a slab.
func (t *keyTable) encode(doc Doc) (*[]byte, error) {
	bp := scratch.Get().(*[]byte)
	e := encoder{t: t}
	var verr *valueError
	for more := true; more; more = e.again(verr) {
		e.lock()
		*bp, verr = e.appendDoc((*bp)[:0], doc, 0)
		e.unlock()
	}
	if verr != nil {
		release(bp)
		return nil, verr
	}
	return bp, nil
}

func release(bp *[]byte) {
	*bp = (*bp)[:0]
	scratch.Put(bp)
}

// encodeValue returns the value headed for path in record form, for
// decodeValue to make fresh copies from.
func (t *keyTable) encodeValue(path string, v any) ([]byte, error) {
	e := encoder{t: t}
	var buf []byte
	var verr *valueError
	for more := true; more; more = e.again(verr) {
		e.lock()
		buf, verr = e.appendValue(buf[:0], v, 1)
		e.unlock()
	}
	if verr != nil {
		return nil, verr.under(path)
	}
	return buf, nil
}

// encoder appends record bytes against a keyTable. A record is encoded
// with the table's lock held once, shared. The first name or short string
// the table lacks sets missed and ends that pass, and only then is the
// record encoded a second time, with the lock held exclusive and admit set,
// adding what is new. (Trading the shared lock for the exclusive one in
// mid-record would keep what the first pass wrote, but would lock the
// table inside a call made under its own lock.)
type encoder struct {
	t      *keyTable
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
	t := e.t
	if r, ok := t.refs[k]; ok || !e.admit {
		e.missed = e.missed || !ok
		return r
	}
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

func (e *encoder) appendDoc(buf []byte, d Doc, depth int) ([]byte, *valueError) {
	n := len(d)
	_, hasID := d[IDField]
	skipID := depth == 0 && hasID
	if skipID {
		n--
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for k, v := range d {
		if skipID && k == IDField {
			continue
		}
		buf = binary.AppendUvarint(buf, e.name(k))
		var verr *valueError
		if buf, verr = e.appendValue(buf, v, depth+1); verr != nil {
			return buf, verr.under(k)
		}
		if e.missed {
			return buf, nil // the exclusive pass starts over
		}
	}
	return buf, nil
}

func (e *encoder) appendValue(buf []byte, v any, depth int) ([]byte, *valueError) {
	switch x := v.(type) {
	case nil:
		return append(buf, kindNil), nil
	case bool:
		if x {
			return append(buf, kindTrue), nil
		}
		return append(buf, kindFalse), nil
	case int:
		return binary.AppendVarint(append(buf, kindInt), int64(x)), nil
	case int32:
		return binary.AppendVarint(append(buf, kindInt32), int64(x)), nil
	case int64:
		return binary.AppendVarint(append(buf, kindInt64), x), nil
	case uint:
		return binary.AppendUvarint(append(buf, kindUint), uint64(x)), nil
	case uint32:
		return binary.AppendUvarint(append(buf, kindUint32), uint64(x)), nil
	case uint64:
		return binary.AppendUvarint(append(buf, kindUint64), x), nil
	case float32:
		return binary.LittleEndian.AppendUint32(append(buf, kindFloat32), math.Float32bits(x)), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(buf, kindFloat64), math.Float64bits(x)), nil
	case string:
		if 0 < len(x) && len(x) <= symMax {
			if off, ok := e.symbol(x); ok {
				return binary.AppendUvarint(append(buf, kindSym), off), nil
			}
		}
		if len(x) > symMax {
			if packed, ok := appendPacked(buf, x); ok {
				return packed, nil
			}
		}
		buf = binary.AppendUvarint(append(buf, kindString), uint64(len(x)))
		return append(buf, x...), nil
	case []any:
		if depth > maxDepth {
			return buf, errTooDeep()
		}
		buf = binary.AppendUvarint(append(buf, kindArray), uint64(len(x)))
		for i, el := range x {
			var verr *valueError
			if buf, verr = e.appendValue(buf, el, depth+1); verr != nil {
				return buf, verr.under(fmt.Sprintf("[%d]", i))
			}
			if e.missed {
				return buf, nil
			}
		}
		return buf, nil
	case map[string]any:
		if depth > maxDepth {
			return buf, errTooDeep()
		}
		return e.appendDoc(append(buf, kindDoc), x, depth)
	default:
		return buf, &valueError{what: fmt.Sprintf("unsupported value type %T", v)}
	}
}

// Packed strings
//
// A string too long for the dictionary that is mostly numeric text, as a
// raw sensor window's JSON integer arrays are, is stored at four bits a
// byte (kindPacked):
//
//	packed := uvarint(len) codes
//
// Codes 0 to 14 stand for the bytes of packAlphabet; code 15 escapes any
// other byte, whose high and low nibbles follow it as two more codes.
// Codes fill each byte high nibble first, and an odd count ends with a
// zero nibble. A string is packed only when its codes take at most three
// quarters of its length; otherwise it stays kindString, so text that is
// mostly letters (a location fix) is never stored larger than inline.
const (
	packAlphabet = `0123456789,-.":`
	packEscape   = 15
)

// packCode maps a byte to its code: its index in packAlphabet, or
// packEscape.
var packCode = func() (t [256]byte) {
	for i := range t {
		t[i] = packEscape
	}
	for k := 0; k < len(packAlphabet); k++ {
		t[packAlphabet[k]] = byte(k)
	}
	return t
}()

// maxEscapes is how many escaped bytes a string of n > symMax bytes may
// hold and still pack: (n + 2·escapes + 1) / 2 bytes of codes at most n·3/4.
func maxEscapes(n int) int { return (n*3/4*2 - n) / 2 }

// appendPacked appends s as kindPacked, or returns buf as it was and false
// once s holds more escaped bytes than maxEscapes allows. Codes collect in
// acc and go out four bytes at a time.
//
//sensolint:hotpath
func appendPacked(buf []byte, s string) ([]byte, bool) {
	mark := len(buf)
	buf = binary.AppendUvarint(append(buf, kindPacked), uint64(len(s)))
	escapes, budget := 0, maxEscapes(len(s))
	var acc uint64 // the low n bits are codes not yet written
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if k := packCode[c]; k != packEscape {
			acc, n = acc<<4|uint64(k), n+4
		} else {
			if escapes == budget {
				return buf[:mark], false
			}
			escapes++
			acc, n = acc<<12|packEscape<<8|uint64(c), n+12
		}
		if n >= 32 {
			n -= 32
			buf = binary.BigEndian.AppendUint32(buf, uint32(acc>>n))
		}
	}
	for ; n >= 8; n -= 8 {
		buf = append(buf, byte(acc>>(n-8)))
	}
	if n == 4 {
		buf = append(buf, byte(acc<<4)) // a zero nibble pads the last byte
	}
	return buf, true
}

// decode rebuilds the document filed under id as a fresh Doc sharing
// nothing with the record. It fails, never panics, on bytes encode did not
// write.
func (t *keyTable) decode(id string, rec []byte) (Doc, error) {
	r := t.reader(rec)
	d := r.doc(1, 0)
	if r.bad || len(r.b) != 0 {
		return nil, errCorruptRecord
	}
	d[IDField] = id
	return d, nil
}

// decodeValue is decode for what encodeValue wrote.
func (t *keyTable) decodeValue(b []byte) (any, error) {
	r := t.reader(b)
	v := r.value(1)
	if r.bad || len(r.b) != 0 {
		return nil, errCorruptRecord
	}
	return v, nil
}

func (t *keyTable) reader(b []byte) recordReader {
	// Names and values are append-only, so this view holds every ref that
	// bytes already written can carry.
	t.mu.RLock()
	defer t.mu.RUnlock()
	return recordReader{b: b, names: t.names, vals: t.vals, end: t.end}
}

// recordReader consumes a record front to back. Every length is checked
// against what is left before it is used; the first thing that does not
// parse sets bad and empties b, so whatever is read after it is zero-valued
// and cheap, and the caller checks bad once at the end.
type recordReader struct {
	b     []byte
	names []string
	vals  [][]byte
	end   uint64 // the dictionary's length in this view
	bad   bool
}

func (r *recordReader) fail() { r.bad, r.b = true, nil }

// take returns the next n bytes, or nil; n comes from the record and may be
// anything.
func (r *recordReader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *recordReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recordReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// doc reads a field list into a map with room for extra more fields.
func (r *recordReader) doc(extra, depth int) Doc {
	n := r.uvarint()
	if n > uint64(len(r.b))/2 { // a field is at least a ref and a kind
		r.fail()
		return nil
	}
	d := make(Doc, int(n)+extra)
	for ; n > 0 && !r.bad; n-- {
		ref := r.uvarint()
		if ref >= uint64(len(r.names)) {
			r.fail()
			break
		}
		d[r.names[ref]] = r.value(depth + 1)
	}
	return d
}

// symbol returns a fresh copy of the dictionary value at off. It reads
// nothing at or past end: bytes there may be being written.
func (r *recordReader) symbol(off uint64) string {
	if off < r.end {
		base := off / dictChunk * dictChunk
		c := r.vals[off/dictChunk][off-base : min(r.end-base, dictChunk)]
		if n, k := binary.Uvarint(c); k > 0 && n <= uint64(len(c)-k) {
			return string(c[k : k+int(n)])
		}
	}
	r.fail()
	return ""
}

// packPairs maps a byte of two codes, neither of them packEscape, to the
// two bytes they stand for.
var packPairs = func() (t [256][2]byte) {
	for hi := 0; hi < packEscape; hi++ {
		for lo := 0; lo < packEscape; lo++ {
			t[hi<<4|lo] = [2]byte{packAlphabet[hi], packAlphabet[lo]}
		}
	}
	return t
}()

// nibble returns the i-th code of codes, high nibbles first.
func nibble(codes []byte, i int) byte { return codes[i>>1] >> (4 - 4*(i&1)) & 0x0f }

// packed reads a kindPacked payload into one fresh string. It fails if the
// codes run past the record, an escape is cut off, or the codes hold more
// than the declared length (a last nibble that is not zero padding).
func (r *recordReader) packed() string {
	n := r.uvarint()
	codes := r.b
	if n > 2*uint64(len(codes)) { // a byte takes at least one code
		r.fail()
		return ""
	}
	var sb strings.Builder
	sb.Grow(int(n))
	var chunk [256]byte
	k, i, end := 0, 0, 2*len(codes) // i and end count codes
	for n > 0 {
		if k >= len(chunk)-1 {
			sb.Write(chunk[:k])
			k = 0
		}
		// Two codes at once while they fill a whole byte and neither escapes.
		if i&1 == 0 && n >= 2 && i < end {
			if b := codes[i>>1]; b < packEscape<<4 && b&0x0f != packEscape {
				p := packPairs[b]
				chunk[k], chunk[k+1] = p[0], p[1]
				k, i, n = k+2, i+2, n-2
				continue
			}
		}
		if i == end {
			r.fail()
			return ""
		}
		c := nibble(codes, i)
		i++
		if c == packEscape {
			if end-i < 2 {
				r.fail()
				return ""
			}
			c = nibble(codes, i)<<4 | nibble(codes, i+1)
			i += 2
		} else {
			c = packAlphabet[c]
		}
		chunk[k] = c
		k, n = k+1, n-1
	}
	if i&1 == 1 && nibble(codes, i) != 0 {
		r.fail()
		return ""
	}
	sb.Write(chunk[:k])
	r.b = codes[(i+1)/2:]
	return sb.String()
}

func (r *recordReader) value(depth int) any {
	kind := r.take(1)
	if kind == nil {
		return nil
	}
	switch kind[0] {
	case kindNil:
		return nil
	case kindFalse:
		return false
	case kindTrue:
		return true
	case kindInt:
		return int(r.varint())
	case kindInt32:
		return int32(r.varint())
	case kindInt64:
		return r.varint()
	case kindUint:
		return uint(r.uvarint())
	case kindUint32:
		return uint32(r.uvarint())
	case kindUint64:
		return r.uvarint()
	case kindFloat32:
		if p := r.take(4); p != nil {
			return math.Float32frombits(binary.LittleEndian.Uint32(p))
		}
	case kindFloat64:
		if p := r.take(8); p != nil {
			return math.Float64frombits(binary.LittleEndian.Uint64(p))
		}
	case kindString:
		return string(r.take(r.uvarint()))
	case kindSym:
		return r.symbol(r.uvarint())
	case kindPacked:
		return r.packed()
	case kindArray:
		n := r.uvarint()
		if n > uint64(len(r.b)) || depth > maxDepth { // an element is at least a kind
			break
		}
		arr := make([]any, n)
		for i := 0; i < len(arr) && !r.bad; i++ {
			arr[i] = r.value(depth + 1)
		}
		return arr
	case kindDoc:
		if depth <= maxDepth {
			return r.doc(0, depth)
		}
	}
	r.fail()
	return nil
}
