package docstore

import (
	"fmt"
	"strings"
)

// Update language
//
//	{"$set": {"name": "x", "city": "Paris"}}   set top-level fields
//
// $set is the only operator; field names are literal, as in queries, and
// values are restricted as Insert's are.

// updater holds the fields a $set writes. A document it is applied to is
// encoded before anything else reads it, so documents may share the
// spec's containers.
type updater struct {
	set map[string]any
}

// compileUpdate validates an update spec; keys is the table of the
// collection the values are headed for.
func compileUpdate(keys *keyTable, u Doc) (*updater, error) {
	if len(u) == 0 {
		return nil, fmt.Errorf("empty update")
	}
	for op := range u {
		if op != "$set" {
			return nil, fmt.Errorf("unsupported update operator %q", op)
		}
	}
	fields, ok := u["$set"].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("$set requires an object, got %T", u["$set"])
	}
	up := &updater{set: make(map[string]any, len(fields))}
	for field, val := range fields {
		if field == IDField {
			return nil, fmt.Errorf("$set may not target %s", IDField)
		}
		if strings.TrimSpace(field) == "" {
			return nil, fmt.Errorf("$set has an empty field name")
		}
		if _, err := keys.encodeValue(field, val); err != nil {
			return nil, fmt.Errorf("$set: %w", err)
		}
		up.set[field] = val
	}
	return up, nil
}

// apply mutates doc in place.
func (u *updater) apply(doc Doc) {
	for field, val := range u.set {
		doc[field] = val
	}
}
