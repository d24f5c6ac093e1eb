package docstore

import (
	"fmt"
	"io"
)

// ReadSnapshot loads what WriteSnapshot wrote into a fresh store, with the
// apply that recovery runs.
func ReadSnapshot(r io.Reader) (*Store, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s := NewStore()
	if err := s.apply(b); err != nil {
		return nil, fmt.Errorf("docstore: read snapshot: %w", err)
	}
	return s, nil
}

// reorganizations reports how many times the collection has rewritten its
// slabs and renumbered its slots.
func (c *Collection) reorganizations() (compactions, renumberings int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.compactions, c.renumberings
}

// Indexes returns the paths of the collection's hash and geo indexes.
func (c *Collection) Indexes() (hash, geoPaths []string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return sortedKeys(c.hashIx), sortedKeys(c.geoIx)
}

// decodeValue is decode for what encodeValue wrote.
func (t *keyTable) decodeValue(b []byte) (any, error) {
	r := t.reader(b)
	v := r.value(1)
	if r.Bad() || r.Len() != 0 {
		return nil, errCorruptRecord
	}
	return v, nil
}
