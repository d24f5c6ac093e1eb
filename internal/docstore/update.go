package docstore

import (
	"fmt"
	"strings"
)

// Update language
//
//	{"$set":   {"a.b": 5, "name": "x"}}   set fields (creating paths)
//	{"$unset": {"a.b": true}}             remove fields
//	{"$inc":   {"count": 1}}              numeric increment (missing = 0)
//	{"$push":  {"tags": "new"}}           append to array (missing = [])
//
// Operators are applied in the fixed order $set, $unset, $inc, $push so
// update application is deterministic regardless of map iteration order.
// $set and $push values are restricted as Insert's are.

type updater struct {
	keys *keyTable
	// $set and $push values are kept encoded and decoded afresh into every
	// document, so no two documents (nor the caller's spec) share a container
	// a later operator of the same update could write through.
	set   map[string][]byte
	unset []string
	inc   map[string]float64
	push  map[string][]byte
}

// compileUpdate validates an update spec; keys is the table of the
// collection the values are headed for.
func compileUpdate(keys *keyTable, u Doc) (*updater, error) {
	if len(u) == 0 {
		return nil, fmt.Errorf("empty update")
	}
	up := &updater{keys: keys, set: map[string][]byte{}, inc: map[string]float64{}, push: map[string][]byte{}}
	for op, arg := range u {
		fields, ok := arg.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("%s requires an object, got %T", op, arg)
		}
		for path, val := range fields {
			if path == IDField {
				return nil, fmt.Errorf("%s may not target %s", op, IDField)
			}
			if strings.TrimSpace(path) == "" {
				return nil, fmt.Errorf("%s has empty field path", op)
			}
			var err error
			switch op {
			case "$set":
				up.set[path], err = keys.encodeValue(path, val)
			case "$push":
				up.push[path], err = keys.encodeValue(path, val)
			case "$unset":
				up.unset = append(up.unset, path)
			case "$inc":
				f, ok := toFloat(val)
				if !ok {
					return nil, fmt.Errorf("$inc %q requires a number, got %T", path, val)
				}
				up.inc[path] = f
			default:
				return nil, fmt.Errorf("unknown update operator %q", op)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", op, err)
			}
		}
	}
	return up, nil
}

// apply mutates doc in place.
func (u *updater) apply(doc Doc) error {
	for _, path := range sortedKeys(u.set) {
		val, err := u.keys.decodeValue(u.set[path])
		if err != nil {
			return err
		}
		if err := setPath(doc, path, val); err != nil {
			return err
		}
	}
	for _, path := range u.unset {
		unsetPath(doc, path)
	}
	for _, path := range sortedKeys(u.inc) {
		cur, ok := lookupPath(doc, path)
		base := 0.0
		if ok {
			f, isNum := toFloat(cur)
			if !isNum {
				return fmt.Errorf("$inc %q: existing value %T is not numeric", path, cur)
			}
			base = f
		}
		if err := setPath(doc, path, base+u.inc[path]); err != nil {
			return err
		}
	}
	for _, path := range sortedKeys(u.push) {
		cur, ok := lookupPath(doc, path)
		var arr []any
		if ok {
			a, isArr := cur.([]any)
			if !isArr {
				return fmt.Errorf("$push %q: existing value %T is not an array", path, cur)
			}
			arr = a
		}
		val, err := u.keys.decodeValue(u.push[path])
		if err != nil {
			return err
		}
		arr = append(arr, val)
		if err := setPath(doc, path, arr); err != nil {
			return err
		}
	}
	return nil
}

// setPath writes val at a dot-separated path, creating intermediate objects.
// It fails when an intermediate segment exists but is not an object.
func setPath(doc Doc, path string, val any) error {
	segs := strings.Split(path, ".")
	cur := doc
	for i, seg := range segs[:len(segs)-1] {
		next, ok := cur[seg]
		if !ok {
			m := make(map[string]any)
			cur[seg] = m
			cur = m
			continue
		}
		m, ok := next.(map[string]any)
		if !ok {
			return fmt.Errorf("path %q blocked at %q by non-object %T",
				path, strings.Join(segs[:i+1], "."), next)
		}
		cur = m
	}
	cur[segs[len(segs)-1]] = val
	return nil
}

// unsetPath removes the field at path; missing paths are a no-op.
func unsetPath(doc Doc, path string) {
	segs := strings.Split(path, ".")
	cur := doc
	for _, seg := range segs[:len(segs)-1] {
		next, ok := cur[seg].(map[string]any)
		if !ok {
			return
		}
		cur = next
	}
	delete(cur, segs[len(segs)-1])
}
