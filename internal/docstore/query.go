package docstore

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/geo"
)

// Query language
//
// A query is nil, which matches every document, or a Doc of top-level field
// names, each with one condition; a document must meet them all:
//
//	{"city": "Paris"}                                                 equality
//	{"loc": {"$near": {"lat":48.8,"lon":2.3,"$maxDistance":15000}}}   within meters
//
// A field name is literal: a dot in it is part of the name. An array field
// equals a value when the whole array does or any one element does, which
// is what the multikey hash index serves. A condition object holding a key
// that starts with "$" must be exactly {"$near": ...}; anything else is an
// error naming the operator.

// matcher is a compiled query predicate.
type matcher []fieldMatcher

func (m matcher) match(d Doc) bool {
	for _, f := range m {
		if !f.match(d) {
			return false
		}
	}
	return true
}

type fieldMatcher struct {
	field string
	pred  func(value any) bool
}

func (f fieldMatcher) match(d Doc) bool {
	v, ok := d[f.field]
	if !ok {
		return false
	}
	if f.pred(v) {
		return true
	}
	// Array fields also match when any element satisfies the predicate.
	arr, _ := v.([]any)
	for _, e := range arr {
		if f.pred(e) {
			return true
		}
	}
	return false
}

// compileQuery validates and compiles a query document into a matcher.
// An empty or nil query matches everything.
func compileQuery(q Doc) (matcher, error) {
	var m matcher
	for field, cond := range q {
		if strings.HasPrefix(field, "$") {
			return nil, fmt.Errorf("unsupported operator %q", field)
		}
		pred, err := compileCondition(cond)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", field, err)
		}
		m = append(m, fieldMatcher{field: field, pred: pred})
	}
	return m, nil
}

func compileCondition(cond any) (func(any) bool, error) {
	if isPlainValue(cond) {
		return func(v any) bool { return compareValues(v, cond) == 0 }, nil
	}
	for op := range cond.(map[string]any) {
		if op != "$near" {
			return nil, fmt.Errorf("unsupported operator %q", op)
		}
	}
	center, radius, err := parseNear(cond.(map[string]any)["$near"])
	if err != nil {
		return nil, err
	}
	return func(v any) bool {
		pt, err := docPoint(v)
		return err == nil && center.DistanceMeters(pt) <= radius
	}, nil
}

// parseNear decodes {"lat":..,"lon":..,"$maxDistance":..} into a center and
// a radius in meters.
func parseNear(arg any) (geo.Point, float64, error) {
	m, ok := arg.(map[string]any)
	if !ok {
		return geo.Point{}, 0, fmt.Errorf("$near requires an object, got %T", arg)
	}
	pt, err := docPoint(m)
	if err != nil {
		return geo.Point{}, 0, fmt.Errorf("$near: %w", err)
	}
	radius, ok := toFloat(m["$maxDistance"])
	if !ok || radius < 0 {
		return geo.Point{}, 0, fmt.Errorf("$near requires non-negative numeric $maxDistance")
	}
	return pt, radius, nil
}

// docPoint extracts a geo.Point from a document value of the form
// {"lat": .., "lon": ..}.
func docPoint(v any) (geo.Point, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return geo.Point{}, fmt.Errorf("value %T is not a point object", v)
	}
	lat, okLat := toFloat(m["lat"])
	lon, okLon := toFloat(m["lon"])
	if !okLat || !okLon {
		return geo.Point{}, fmt.Errorf("point object missing numeric lat/lon")
	}
	p := geo.Point{Lat: lat, Lon: lon}
	if !p.Valid() {
		return geo.Point{}, fmt.Errorf("point %v out of range", p)
	}
	return p, nil
}

// typeRank orders values of different kinds so sorting is total:
// nil < bool < number < string < array < object.
func typeRank(v any) int {
	switch v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int, int32, int64, uint, uint32, uint64, float32, float64:
		return 2
	case string:
		return 3
	case []any:
		return 4
	case map[string]any:
		return 5
	default:
		return 6
	}
}

// compareValues imposes a total order over document values: first by type
// rank, then within the type. Numbers compare numerically across Go numeric
// types. Returns -1, 0 or 1.
func compareValues(a, b any) int {
	ra, rb := typeRank(a), typeRank(b)
	if ra != rb {
		return sign(ra - rb)
	}
	switch ra {
	case 0:
		return 0
	case 1:
		ab, bb := a.(bool), b.(bool)
		switch {
		case ab == bb:
			return 0
		case !ab:
			return -1
		default:
			return 1
		}
	case 2:
		fa, _ := toFloat(a)
		fb, _ := toFloat(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	case 3:
		return strings.Compare(a.(string), b.(string))
	case 4:
		aa, ba := a.([]any), b.([]any)
		for i := 0; i < len(aa) && i < len(ba); i++ {
			if c := compareValues(aa[i], ba[i]); c != 0 {
				return c
			}
		}
		return sign(len(aa) - len(ba))
	case 5:
		// Objects compare by sorted key sequence then values.
		am, bm := a.(map[string]any), b.(map[string]any)
		aks, bks := sortedKeys(am), sortedKeys(bm)
		for i := 0; i < len(aks) && i < len(bks); i++ {
			if c := strings.Compare(aks[i], bks[i]); c != 0 {
				return c
			}
			if c := compareValues(am[aks[i]], bm[bks[i]]); c != 0 {
				return c
			}
		}
		return sign(len(aks) - len(bks))
	default:
		return 0
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}

// toFloat converts any Go numeric value to float64.
func toFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case int:
		return float64(t), true
	case int32:
		return float64(t), true
	case int64:
		return float64(t), true
	case uint:
		return float64(t), true
	case uint32:
		return float64(t), true
	case uint64:
		return float64(t), true
	case float32:
		return float64(t), true
	case float64:
		return t, true
	default:
		return 0, false
	}
}
