package docstore

import (
	"fmt"
	"strings"

	"repro/internal/geo"
)

// Query language
//
// A query is a Doc whose keys are either field paths (dot-separated, e.g.
// "profile.home.city") with a condition value, or logical operators:
//
//	{"city": "Paris"}                          implicit $eq
//	{"age": {"$gte": 18, "$lt": 65}}           comparison operators
//	{"city": {"$in": ["Paris", "Lyon"]}}       membership
//	{"$or": [{...}, {...}]}                    disjunction
//	{"$and": [{...}, {...}]}                   conjunction
//	{"$not": {...}}                            negation
//	{"name": {"$exists": true}}                field presence
//	{"text": {"$contains": "football"}}        substring match
//	{"loc": {"$near": {"lat":48.8,"lon":2.3,"$maxDistance":15000}}} geo
//
// Field values that are arrays match a scalar condition when any element
// matches, mirroring MongoDB array semantics.

// matcher is a compiled query predicate.
type matcher interface {
	match(d Doc) bool
}

type andMatcher []matcher

func (a andMatcher) match(d Doc) bool {
	for _, m := range a {
		if !m.match(d) {
			return false
		}
	}
	return true
}

type orMatcher []matcher

func (o orMatcher) match(d Doc) bool {
	for _, m := range o {
		if m.match(d) {
			return true
		}
	}
	return false
}

type notMatcher struct{ inner matcher }

func (n notMatcher) match(d Doc) bool { return !n.inner.match(d) }

type fieldMatcher struct {
	path string
	pred func(value any, present bool) bool
}

func (f fieldMatcher) match(d Doc) bool {
	v, ok := lookupPath(d, f.path)
	if ok {
		// Array fields match when any element satisfies the predicate.
		if arr, isArr := v.([]any); isArr {
			if f.pred(v, true) {
				return true
			}
			for _, e := range arr {
				if f.pred(e, true) {
					return true
				}
			}
			return false
		}
	}
	return f.pred(v, ok)
}

// compileQuery validates and compiles a query document into a matcher.
// An empty or nil query matches everything.
func compileQuery(q Doc) (matcher, error) {
	var ms andMatcher
	for key, val := range q {
		switch key {
		case "$and", "$or":
			subs, ok := val.([]any)
			if !ok {
				subsD, okD := val.([]Doc)
				if !okD {
					return nil, fmt.Errorf("%s requires an array of queries, got %T", key, val)
				}
				for _, sd := range subsD {
					subs = append(subs, any(sd))
				}
			}
			var compiled []matcher
			for i, s := range subs {
				sd, ok := s.(map[string]any)
				if !ok {
					return nil, fmt.Errorf("%s element %d is %T, want object", key, i, s)
				}
				m, err := compileQuery(sd)
				if err != nil {
					return nil, err
				}
				compiled = append(compiled, m)
			}
			if key == "$and" {
				ms = append(ms, andMatcher(compiled))
			} else {
				ms = append(ms, orMatcher(compiled))
			}
		case "$not":
			sd, ok := val.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("$not requires a query object, got %T", val)
			}
			m, err := compileQuery(sd)
			if err != nil {
				return nil, err
			}
			ms = append(ms, notMatcher{m})
		default:
			if strings.HasPrefix(key, "$") {
				return nil, fmt.Errorf("unknown top-level operator %q", key)
			}
			m, err := compileFieldCondition(key, val)
			if err != nil {
				return nil, err
			}
			ms = append(ms, m)
		}
	}
	return ms, nil
}

func compileFieldCondition(path string, cond any) (matcher, error) {
	if isPlainValue(cond) {
		want := cond
		return fieldMatcher{path: path, pred: func(v any, ok bool) bool {
			return ok && compareValues(v, want) == 0
		}}, nil
	}
	ops := cond.(map[string]any)
	var preds []func(any, bool) bool
	for op, arg := range ops {
		p, err := compileOperator(op, arg)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", path, err)
		}
		preds = append(preds, p)
	}
	return fieldMatcher{path: path, pred: func(v any, ok bool) bool {
		for _, p := range preds {
			if !p(v, ok) {
				return false
			}
		}
		return true
	}}, nil
}

func compileOperator(op string, arg any) (func(any, bool) bool, error) {
	switch op {
	case "$eq":
		return func(v any, ok bool) bool { return ok && compareValues(v, arg) == 0 }, nil
	case "$ne":
		return func(v any, ok bool) bool { return !ok || compareValues(v, arg) != 0 }, nil
	case "$gt":
		return func(v any, ok bool) bool { return ok && comparableKinds(v, arg) && compareValues(v, arg) > 0 }, nil
	case "$gte":
		return func(v any, ok bool) bool { return ok && comparableKinds(v, arg) && compareValues(v, arg) >= 0 }, nil
	case "$lt":
		return func(v any, ok bool) bool { return ok && comparableKinds(v, arg) && compareValues(v, arg) < 0 }, nil
	case "$lte":
		return func(v any, ok bool) bool { return ok && comparableKinds(v, arg) && compareValues(v, arg) <= 0 }, nil
	case "$in", "$nin":
		list, ok := arg.([]any)
		if !ok {
			return nil, fmt.Errorf("%s requires an array, got %T", op, arg)
		}
		contains := func(v any) bool {
			for _, e := range list {
				if compareValues(v, e) == 0 {
					return true
				}
			}
			return false
		}
		if op == "$in" {
			return func(v any, ok bool) bool { return ok && contains(v) }, nil
		}
		return func(v any, ok bool) bool { return !ok || !contains(v) }, nil
	case "$exists":
		want, ok := arg.(bool)
		if !ok {
			return nil, fmt.Errorf("$exists requires a bool, got %T", arg)
		}
		return func(_ any, present bool) bool { return present == want }, nil
	case "$contains":
		sub, ok := arg.(string)
		if !ok {
			return nil, fmt.Errorf("$contains requires a string, got %T", arg)
		}
		return func(v any, ok bool) bool {
			s, isStr := v.(string)
			return ok && isStr && strings.Contains(strings.ToLower(s), strings.ToLower(sub))
		}, nil
	case "$near":
		center, radius, err := parseNear(arg)
		if err != nil {
			return nil, err
		}
		return func(v any, ok bool) bool {
			if !ok {
				return false
			}
			pt, err := docPoint(v)
			if err != nil {
				return false
			}
			return center.DistanceMeters(pt) <= radius
		}, nil
	default:
		return nil, fmt.Errorf("unknown operator %q", op)
	}
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

// lookupPath resolves a dot-separated field path within a document.
func lookupPath(d Doc, path string) (any, bool) {
	cur := any(d)
	for _, seg := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		cur, ok = m[seg]
		if !ok {
			return nil, false
		}
	}
	return cur, true
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

// comparableKinds reports whether ordering comparisons between a and b are
// meaningful (same type rank: both numbers, or both strings, ...).
func comparableKinds(a, b any) bool { return typeRank(a) == typeRank(b) }

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
	// Insertion sort: maps here are tiny.
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
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
