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

// hashIndex maps an equality key to the ids of documents holding that value
// at the indexed field path, or in the array there.
type hashIndex struct {
	path string
	byK  map[string][]string
}

func newHashIndex(path string) *hashIndex {
	return &hashIndex{path: path, byK: make(map[string][]string)}
}

func (ix *hashIndex) add(id string, d Doc) {
	v, ok := lookupPath(d, ix.path)
	if !ok {
		return
	}
	for _, k := range equalityKeys(v) {
		ix.byK[k] = append(ix.byK[k], id)
	}
}

func (ix *hashIndex) remove(id string, d Doc) {
	v, ok := lookupPath(d, ix.path)
	if !ok {
		return
	}
	for _, k := range equalityKeys(v) {
		ids := ix.byK[k]
		for i, x := range ids {
			if x == id {
				ids[i] = ids[len(ids)-1]
				ix.byK[k] = ids[:len(ids)-1]
				break
			}
		}
		if len(ix.byK[k]) == 0 {
			delete(ix.byK, k)
		}
	}
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

func (ix *hashIndex) get(key string) []string { return ix.byK[key] }

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
// queries.
type geoIndex struct {
	path    string
	cellDeg float64
	cells   map[int64][]string
	byID    map[string]int64
}

const defaultGeoCellDeg = 0.01

func newGeoIndex(path string) *geoIndex {
	return &geoIndex{
		path:    path,
		cellDeg: defaultGeoCellDeg,
		cells:   make(map[int64][]string),
		byID:    make(map[string]int64),
	}
}

func (ix *geoIndex) cellKey(lat, lon float64) int64 {
	row := int64(math.Floor((lat + 90) / ix.cellDeg))
	col := int64(math.Floor((lon + 180) / ix.cellDeg))
	return row<<32 | (col & 0xffffffff)
}

func (ix *geoIndex) add(id string, d Doc) {
	v, ok := lookupPath(d, ix.path)
	if !ok {
		return
	}
	pt, err := docPoint(v)
	if err != nil {
		return
	}
	key := ix.cellKey(pt.Lat, pt.Lon)
	ix.cells[key] = append(ix.cells[key], id)
	ix.byID[id] = key
}

func (ix *geoIndex) remove(id string, _ Doc) {
	key, ok := ix.byID[id]
	if !ok {
		return
	}
	ids := ix.cells[key]
	for i, x := range ids {
		if x == id {
			ids[i] = ids[len(ids)-1]
			ix.cells[key] = ids[:len(ids)-1]
			break
		}
	}
	if len(ix.cells[key]) == 0 {
		delete(ix.cells, key)
	}
	delete(ix.byID, id)
}

// candidates returns ids in all grid cells overlapping the bounding box of
// the query circle. The exact haversine filter is applied later by the
// matcher; this only prunes.
func (ix *geoIndex) candidates(center geo.Point, radiusMeters float64) []string {
	c := geo.Circle{Center: center, Radius: radiusMeters}
	minLat, minLon, maxLat, maxLon := c.BoundingBox()
	minRow := int64(math.Floor((minLat + 90) / ix.cellDeg))
	maxRow := int64(math.Floor((maxLat + 90) / ix.cellDeg))
	minCol := int64(math.Floor((minLon + 180) / ix.cellDeg))
	maxCol := int64(math.Floor((maxLon + 180) / ix.cellDeg))
	// Guard against pathological boxes (huge radius): cap the scan and fall
	// back to a full index walk which is still exact.
	if (maxRow-minRow+1)*(maxCol-minCol+1) > 1<<16 {
		out := make([]string, 0, len(ix.byID))
		for id := range ix.byID {
			out = append(out, id)
		}
		return out
	}
	var out []string
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			out = append(out, ix.cells[row<<32|(col&0xffffffff)]...)
		}
	}
	return out
}

// CreateIndex builds a hash index over a field path for equality queries.
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
	for id, rec := range c.docs {
		ix.add(id, c.decode(id, rec))
	}
	c.hashIx[path] = ix
	if pinned != nil {
		return c.logLocked(journalRecord{Op: opHashIndex, Path: path})
	}
	return nil
}

// CreateGeoIndex builds a grid geospatial index over a field path holding
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
	for id, rec := range c.docs {
		ix.add(id, c.decode(id, rec))
	}
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
// filed as rec under id; a collection without indexes never decodes it.
func (c *Collection) indexAddLocked(id string, rec []byte) {
	if len(c.hashIx)+len(c.geoIx) == 0 {
		return
	}
	d := c.decode(id, rec)
	for _, ix := range c.hashIx {
		ix.add(id, d)
	}
	for _, ix := range c.geoIx {
		ix.add(id, d)
	}
}

func (c *Collection) indexRemoveLocked(id string, rec []byte) {
	if len(c.hashIx)+len(c.geoIx) == 0 {
		return
	}
	d := c.decode(id, rec)
	for _, ix := range c.hashIx {
		ix.remove(id, d)
	}
	for _, ix := range c.geoIx {
		ix.remove(id, d)
	}
}
