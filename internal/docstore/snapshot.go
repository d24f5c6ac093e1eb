package docstore

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Snapshots give the in-memory store MongoDB-style durability: the whole
// store serializes to a JSON document (collections, documents, and index
// definitions, which are rebuilt on load). The server can checkpoint its
// registry across restarts.

// snapshotFile is the serialized store shape.
type snapshotFile struct {
	Version     int                  `json:"version"`
	Collections []snapshotCollection `json:"collections"`
}

type snapshotCollection struct {
	Name        string   `json:"name"`
	HashIndexes []string `json:"hash_indexes,omitempty"`
	GeoIndexes  []string `json:"geo_indexes,omitempty"`
	Docs        []Doc    `json:"docs"`
	// Seq is the id-generation high-water mark, so inserts after a restore
	// cannot reuse a generated id. Absent in pre-durability snapshots;
	// restore also re-derives it from the doc ids.
	Seq uint64 `json:"seq,omitempty"`
}

const snapshotVersion = 1

// WriteSnapshot serializes the store to w.
func (s *Store) WriteSnapshot(w io.Writer) error {
	file := snapshotFile{Version: snapshotVersion}
	for _, name := range s.CollectionNames() {
		c := s.Collection(name)
		sc := snapshotCollection{Name: name}
		sc.HashIndexes, sc.GeoIndexes = c.Indexes()
		sort.Strings(sc.HashIndexes)
		sort.Strings(sc.GeoIndexes)
		docs, err := c.Find(nil, FindOpts{})
		if err != nil {
			return fmt.Errorf("docstore: snapshot %q: %w", name, err)
		}
		sc.Docs = docs
		sc.Seq = c.seqValue()
		file.Collections = append(file.Collections, sc)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(file); err != nil {
		return fmt.Errorf("docstore: write snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot loads a snapshot into a fresh store.
func ReadSnapshot(r io.Reader) (*Store, error) {
	var file snapshotFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("docstore: read snapshot: %w", err)
	}
	if file.Version != snapshotVersion {
		return nil, fmt.Errorf("docstore: snapshot version %d unsupported", file.Version)
	}
	s := NewStore()
	for _, sc := range file.Collections {
		c := s.Collection(sc.Name)
		for _, p := range sc.HashIndexes {
			if err := c.CreateIndex(p); err != nil {
				return nil, fmt.Errorf("docstore: restore %q: %w", sc.Name, err)
			}
		}
		for _, p := range sc.GeoIndexes {
			if err := c.CreateGeoIndex(p); err != nil {
				return nil, fmt.Errorf("docstore: restore %q: %w", sc.Name, err)
			}
		}
		for _, d := range sc.Docs {
			if _, err := c.Insert(d); err != nil {
				return nil, fmt.Errorf("docstore: restore %q: %w", sc.Name, err)
			}
			if id, ok := d[IDField].(string); ok {
				c.noteGeneratedID(id)
			}
		}
		c.mu.Lock()
		if sc.Seq > c.seq {
			c.seq = sc.Seq
		}
		c.mu.Unlock()
	}
	return s, nil
}
