package docstore

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/geo"
	"repro/internal/wal"
)

// Indexes
//
// Two index kinds mirror the MongoDB features the paper leans on (§5.5):
// secondary indexes "for commonly used queries" and native geospatial
// indexes for "fast return of nearby users or those located within a
// certain area".

// hashIndex maps an equality key to the slots of documents holding that
// value at the indexed field, or in the array there. A bucket is kept
// ascending, which is insertion order. The map holds each key's bucket
// number rather than the bucket, so a write under a key already filed
// changes the bucket in place and looks the key up from the bytes on the
// writer's stack: the key string is built only when a new key is filed.
type hashIndex struct {
	path    string
	byK     map[string]uint32 // key → bucket number
	buckets [][]uint32
	free    []uint32 // numbers of emptied buckets
}

func newHashIndex(path string) *hashIndex {
	return &hashIndex{path: path, byK: make(map[string]uint32)}
}

// keyBuf is the stack space a scalar's key is built in; a longer key
// spills to the heap.
const keyBuf = 64

func (ix *hashIndex) add(slot uint32, d Doc) {
	v, ok := d[ix.path]
	if !ok {
		return
	}
	arr, multi := v.([]any)
	if !multi {
		var buf [keyBuf]byte
		ix.insert(appendKey(buf[:0], v), slot)
		return
	}
	for _, k := range arrayKeys(arr) {
		ix.insert(k, slot)
	}
}

func (ix *hashIndex) remove(slot uint32, d Doc) {
	v, ok := d[ix.path]
	if !ok {
		return
	}
	arr, multi := v.([]any)
	if !multi {
		var buf [keyBuf]byte
		ix.delete(appendKey(buf[:0], v), slot)
		return
	}
	for _, k := range arrayKeys(arr) {
		ix.delete(k, slot)
	}
}

func (ix *hashIndex) insert(k []byte, slot uint32) {
	if b, ok := ix.byK[string(k)]; ok {
		ix.buckets[b] = insertSorted(ix.buckets[b], slot)
		return
	}
	var b uint32
	if n := len(ix.free); n > 0 {
		b, ix.free = ix.free[n-1], ix.free[:n-1]
	} else {
		b = uint32(len(ix.buckets))
		ix.buckets = append(ix.buckets, nil)
	}
	ix.buckets[b] = append(ix.buckets[b], slot)
	ix.byK[string(k)] = b
}

func (ix *hashIndex) delete(k []byte, slot uint32) {
	b, ok := ix.byK[string(k)]
	if !ok {
		return
	}
	if slots := removeSorted(ix.buckets[b], slot); len(slots) > 0 {
		ix.buckets[b] = slots
		return
	}
	delete(ix.byK, string(k))
	ix.buckets[b] = nil
	ix.free = append(ix.free, b)
}

func insertSorted(slots []uint32, slot uint32) []uint32 {
	if i, found := slices.BinarySearch(slots, slot); !found {
		return slices.Insert(slots, i, slot)
	}
	return slots
}

func removeSorted(slots []uint32, slot uint32) []uint32 {
	if i, found := slices.BinarySearch(slots, slot); found {
		return slices.Delete(slots, i, i+1)
	}
	return slots
}

// arrayKeys returns the keys an array field value is found under: its own
// and, because the matcher lets an array match through any one element,
// each distinct element's. A scalar is found under its hashKey alone.
func arrayKeys(arr []any) [][]byte {
	keys := [][]byte{appendKey(nil, arr)}
	for _, e := range arr {
		k := appendKey(nil, e)
		if !slices.ContainsFunc(keys, func(have []byte) bool { return bytes.Equal(have, k) }) {
			keys = append(keys, k)
		}
	}
	return keys
}

func (ix *hashIndex) get(key string) []uint32 {
	if b, ok := ix.byK[key]; ok {
		return ix.buckets[b]
	}
	return nil
}

// hashKey produces a canonical string key for an equality-indexable value.
// Numeric types collapse to one representation so int(5) and float64(5)
// index identically, matching compareValues semantics.
func hashKey(v any) string { return string(appendKey(nil, v)) }

// appendKey appends v's hashKey to b.
func appendKey(b []byte, v any) []byte {
	if f, ok := toFloat(v); ok {
		return strconv.AppendFloat(append(b, "n:"...), f, 'g', -1, 64)
	}
	switch t := v.(type) {
	case nil:
		return append(b, "z:"...)
	case bool:
		return strconv.AppendBool(append(b, "b:"...), t)
	case string:
		return append(append(b, "s:"...), t...)
	default:
		return fmt.Appendf(b, "o:%v", t)
	}
}

// geoIndex is a uniform lat/lon grid. Cells are cellDeg degrees on a side
// (~1.1 km of latitude at the default), which suits city-scale multicast
// queries. A cell's slots are kept ascending.
type geoIndex struct {
	path    string
	cellDeg float64
	cells   map[int64][]uint32
}

const defaultGeoCellDeg = 0.01

func newGeoIndex(path string) *geoIndex {
	return &geoIndex{
		path:    path,
		cellDeg: defaultGeoCellDeg,
		cells:   make(map[int64][]uint32),
	}
}

// cellOf returns the cell d's point falls in, if it has a valid one.
func (ix *geoIndex) cellOf(d Doc) (int64, bool) {
	v, ok := d[ix.path]
	if !ok {
		return 0, false
	}
	pt, err := docPoint(v)
	if err != nil {
		return 0, false
	}
	row := int64(math.Floor((pt.Lat + 90) / ix.cellDeg))
	col := int64(math.Floor((pt.Lon + 180) / ix.cellDeg))
	return row<<32 | (col & 0xffffffff), true
}

func (ix *geoIndex) add(slot uint32, d Doc) {
	if key, ok := ix.cellOf(d); ok {
		ix.cells[key] = insertSorted(ix.cells[key], slot)
	}
}

func (ix *geoIndex) remove(slot uint32, d Doc) {
	key, ok := ix.cellOf(d)
	if !ok {
		return
	}
	if slots := removeSorted(ix.cells[key], slot); len(slots) > 0 {
		ix.cells[key] = slots
	} else {
		delete(ix.cells, key)
	}
}

// candidates returns, ascending, the slots in all grid cells overlapping the
// bounding box of the query circle. The exact haversine filter is applied
// later by the matcher; this only prunes. A box of more than 2^16 cells (a
// huge radius) is not worth walking: ok is false and the caller scans.
func (ix *geoIndex) candidates(center geo.Point, radiusMeters float64) (slots []uint32, ok bool) {
	c := geo.Circle{Center: center, Radius: radiusMeters}
	minLat, minLon, maxLat, maxLon := c.BoundingBox()
	minRow := int64(math.Floor((minLat + 90) / ix.cellDeg))
	maxRow := int64(math.Floor((maxLat + 90) / ix.cellDeg))
	minCol := int64(math.Floor((minLon + 180) / ix.cellDeg))
	maxCol := int64(math.Floor((maxLon + 180) / ix.cellDeg))
	if (maxRow-minRow+1)*(maxCol-minCol+1) > 1<<16 {
		return nil, false
	}
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			slots = append(slots, ix.cells[row<<32|(col&0xffffffff)]...)
		}
	}
	slices.Sort(slots)
	return slots, true
}

// CreateIndex builds a hash index over a top-level field for equality queries.
// Existing documents are indexed immediately. Creating the same index twice
// is a no-op.
func (c *Collection) CreateIndex(path string) error { return c.createIndex(opHashIndex, path) }

// CreateGeoIndex builds a grid geospatial index over a top-level field holding
// {"lat":..,"lon":..} objects.
func (c *Collection) CreateGeoIndex(path string) error { return c.createIndex(opGeoIndex, path) }

// createIndex builds the index op names (opHashIndex or opGeoIndex), as
// journal replay does too.
func (c *Collection) createIndex(op byte, path string) error {
	if path == "" {
		return fmt.Errorf("docstore: create index on %q: empty path", c.name)
	}
	pinned := c.pinJournal()
	defer pinned.unpin()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case op == opHashIndex && c.hashIx[path] == nil:
		ix := newHashIndex(path)
		c.eachLocked(ix.add)
		c.hashIx[path] = ix
	case op == opGeoIndex && c.geoIx[path] == nil:
		ix := newGeoIndex(path)
		c.eachLocked(ix.add)
		c.geoIx[path] = ix
	default:
		return nil
	}
	if pinned != nil {
		return c.logLocked(wal.AppendText([]byte{op}, path))
	}
	return nil
}

// indexAddLocked and indexRemoveLocked enter and withdraw the document
// filed as rec under id at slot; a collection without indexes never decodes
// it. indexAddLocked reads doc, the document rec encodes: a record reads
// back with the kinds and values it was written with, so the two file
// under the same keys. The _id is the exception, as the record
// does not hold it and doc may name another or none, so an index on _id
// has rec decoded.
func (c *Collection) indexAddLocked(slot uint32, id string, rec []byte, doc Doc) {
	if len(c.hashIx)+len(c.geoIx) == 0 {
		return
	}
	d := doc
	if c.hashIx[IDField] != nil || c.geoIx[IDField] != nil {
		d = c.decode(id, rec)
	}
	for _, ix := range c.hashIx {
		ix.add(slot, d)
	}
	for _, ix := range c.geoIx {
		ix.add(slot, d)
	}
}

func (c *Collection) indexRemoveLocked(slot uint32, id string, rec []byte) {
	if len(c.hashIx)+len(c.geoIx) == 0 {
		return
	}
	d := c.decode(id, rec)
	for _, ix := range c.hashIx {
		ix.remove(slot, d)
	}
	for _, ix := range c.geoIx {
		ix.remove(slot, d)
	}
}
