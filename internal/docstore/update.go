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

type updater struct {
	keys *keyTable
	// Values are kept encoded and decoded afresh into every document, so no
	// two documents (nor the caller's spec) share a container.
	set map[string][]byte
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
	up := &updater{keys: keys, set: make(map[string][]byte, len(fields))}
	for field, val := range fields {
		if field == IDField {
			return nil, fmt.Errorf("$set may not target %s", IDField)
		}
		if strings.TrimSpace(field) == "" {
			return nil, fmt.Errorf("$set has an empty field name")
		}
		enc, err := keys.encodeValue(field, val)
		if err != nil {
			return nil, fmt.Errorf("$set: %w", err)
		}
		up.set[field] = enc
	}
	return up, nil
}

// apply mutates doc in place.
func (u *updater) apply(doc Doc) error {
	for field, enc := range u.set {
		val, err := u.keys.decodeValue(enc)
		if err != nil {
			return err
		}
		doc[field] = val
	}
	return nil
}
