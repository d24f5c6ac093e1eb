package docstore

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/geo"
)

// Indexes
//
// Two index kinds mirror the MongoDB features the paper leans on (§5.5):
// secondary indexes "for commonly used queries" and native geospatial
// indexes for "fast return of nearby users or those located within a
// certain area".

// hashIndex maps an equality key to the slots of documents holding that
// value at the indexed field, or in the array there. A bucket is kept
// ascending, which is insertion order.
type hashIndex struct {
	path string
	byK  map[string][]uint32
}

func newHashIndex(path string) *hashIndex {
	return &hashIndex{path: path, byK: make(map[string][]uint32)}
}

func (ix *hashIndex) add(slot uint32, d Doc) {
	v, ok := d[ix.path]
	if !ok {
		return
	}
	for _, k := range equalityKeys(v) {
		ix.byK[k] = insertSorted(ix.byK[k], slot)
	}
}

func (ix *hashIndex) remove(slot uint32, d Doc) {
	v, ok := d[ix.path]
	if !ok {
		return
	}
	for _, k := range equalityKeys(v) {
		if slots := removeSorted(ix.byK[k], slot); len(slots) > 0 {
			ix.byK[k] = slots
		} else {
			delete(ix.byK, k)
		}
	}
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

// equalityKeys returns the keys a field value is found under: its own and,
// because the matcher lets an array match through any one element, each
// distinct element's.
func equalityKeys(v any) []string {
	keys := []string{hashKey(v)}
	if arr, ok := v.([]any); ok {
		for _, e := range arr {
			if k := hashKey(e); !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

func (ix *hashIndex) get(key string) []uint32 { return ix.byK[key] }

// hashKey produces a canonical string key for an equality-indexable value.
// Numeric types collapse to one representation so int(5) and float64(5)
// index identically, matching compareValues semantics.
func hashKey(v any) string {
	if f, ok := toFloat(v); ok {
		return "n:" + strconv.FormatFloat(f, 'g', -1, 64)
	}
	switch t := v.(type) {
	case nil:
		return "z:"
	case bool:
		return "b:" + strconv.FormatBool(t)
	case string:
		return "s:" + t
	default:
		return fmt.Sprintf("o:%v", t)
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
func (c *Collection) CreateIndex(path string) error {
	if path == "" {
		return fmt.Errorf("docstore: create index on %q: empty path", c.name)
	}
	pinned := c.pinJournal()
	defer pinned.unpin()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.hashIx[path]; ok {
		return nil
	}
	ix := newHashIndex(path)
	c.eachLocked(ix.add)
	c.hashIx[path] = ix
	if pinned != nil {
		return c.logLocked(journalRecord{Op: opHashIndex, Path: path})
	}
	return nil
}

// CreateGeoIndex builds a grid geospatial index over a top-level field holding
// {"lat":..,"lon":..} objects.
func (c *Collection) CreateGeoIndex(path string) error {
	if path == "" {
		return fmt.Errorf("docstore: create geo index on %q: empty path", c.name)
	}
	pinned := c.pinJournal()
	defer pinned.unpin()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.geoIx[path]; ok {
		return nil
	}
	ix := newGeoIndex(path)
	c.eachLocked(ix.add)
	c.geoIx[path] = ix
	if pinned != nil {
		return c.logLocked(journalRecord{Op: opGeoIndex, Path: path})
	}
	return nil
}

// Indexes returns the paths of all hash and geo indexes (for diagnostics).
func (c *Collection) Indexes() (hash, geoPaths []string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for p := range c.hashIx {
		hash = append(hash, p)
	}
	for p := range c.geoIx {
		geoPaths = append(geoPaths, p)
	}
	return hash, geoPaths
}

// indexAddLocked and indexRemoveLocked enter and withdraw the document
// filed as rec under id at slot; a collection without indexes never decodes
// it.
func (c *Collection) indexAddLocked(slot uint32, id string, rec []byte) {
	if len(c.hashIx)+len(c.geoIx) == 0 {
		return
	}
	d := c.decode(id, rec)
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
