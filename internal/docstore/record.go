package docstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
// once per collection, not once per record. The top-level _id is not in the
// record: it is the id the record is filed under, and decode puts it back.
// The kind byte preserves the Go kind, so a document reads back with the
// types it was stored with (an int64 stays an int64):
//
//	nil, false, true                  no payload
//	int, int32, int64                 zig-zag varint
//	uint, uint32, uint64              uvarint
//	float32, float64                  IEEE 754 bits, little endian
//	string                            uvarint(len) bytes
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

// keyTable interns the field names of one collection. It has its own lock
// (a leaf: nothing is acquired under it) so records are encoded before the
// collection lock is taken. Names are never removed, so a ref stays valid
// for the life of the collection.
type keyTable struct {
	mu    sync.RWMutex
	refs  map[string]uint64
	names []string
}

func (t *keyTable) ref(name string) uint64 {
	t.mu.RLock()
	r, ok := t.refs[name]
	t.mu.RUnlock()
	if ok {
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.refs[name]; ok {
		return r
	}
	if t.refs == nil {
		t.refs = make(map[string]uint64)
	}
	r = uint64(len(t.names))
	t.names = append(t.names, name)
	t.refs[name] = r
	return r
}

// scratch holds encode buffers: a record is built in one and copied into a
// slab, so append's growth slack is never kept per document.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// encode builds doc's record in a scratch buffer; the caller hands it back
// with release once the record is in a slab.
func (t *keyTable) encode(doc Doc) (*[]byte, error) {
	bp := scratch.Get().(*[]byte)
	buf, verr := t.appendDoc((*bp)[:0], doc, 0)
	*bp = buf
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
	buf, verr := t.appendValue(nil, v, 1)
	if verr != nil {
		return nil, verr.under(path)
	}
	return buf, nil
}

func (t *keyTable) appendDoc(buf []byte, d Doc, depth int) ([]byte, *valueError) {
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
		buf = binary.AppendUvarint(buf, t.ref(k))
		var verr *valueError
		if buf, verr = t.appendValue(buf, v, depth+1); verr != nil {
			return buf, verr.under(k)
		}
	}
	return buf, nil
}

func (t *keyTable) appendValue(buf []byte, v any, depth int) ([]byte, *valueError) {
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
		buf = binary.AppendUvarint(append(buf, kindString), uint64(len(x)))
		return append(buf, x...), nil
	case []any:
		if depth > maxDepth {
			return buf, errTooDeep()
		}
		buf = binary.AppendUvarint(append(buf, kindArray), uint64(len(x)))
		for i, e := range x {
			var verr *valueError
			if buf, verr = t.appendValue(buf, e, depth+1); verr != nil {
				return buf, verr.under(fmt.Sprintf("[%d]", i))
			}
		}
		return buf, nil
	case map[string]any:
		if depth > maxDepth {
			return buf, errTooDeep()
		}
		return t.appendDoc(append(buf, kindDoc), x, depth)
	default:
		return buf, &valueError{what: fmt.Sprintf("unsupported value type %T", v)}
	}
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
	// Names are append-only, so this view holds every ref that bytes
	// already written can carry.
	t.mu.RLock()
	defer t.mu.RUnlock()
	return recordReader{b: b, names: t.names}
}

// recordReader consumes a record front to back. Every length is checked
// against what is left before it is used; the first thing that does not
// parse sets bad and empties b, so whatever is read after it is zero-valued
// and cheap, and the caller checks bad once at the end.
type recordReader struct {
	b     []byte
	names []string
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
