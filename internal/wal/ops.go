package wal

import (
	"encoding/binary"
	"fmt"
)

// The stores that journal to a Log (the document store and the broker's
// session store) write their records and snapshots in one framing: a
// format version byte, then ops whose fields are uvarints and texts, a
// text being uvarint(len) bytes. AppendText writes a text, CheckVersion
// reads the version byte and RecordReader reads the fields back.

// CheckVersion returns the ops that follow b's format version byte, or an
// error naming the format b is in when that byte is not version. Version 1
// of both stores was JSON, whose records begin with '{'; it is not read.
func CheckVersion(b []byte, version byte) ([]byte, error) {
	if len(b) > 0 && b[0] == '{' {
		return nil, fmt.Errorf("format version 1 (JSON) is not read; this store reads version %d", version)
	}
	if len(b) == 0 || b[0] != version {
		return nil, fmt.Errorf("unknown format version; this store reads version %d", version)
	}
	return b[1:], nil
}

// Replay hands apply the snapshot, if any, then each tail record in order,
// and stops at the first error, naming what it was applying.
func (rec *Recovery) Replay(apply func([]byte) error) error {
	if rec.Snapshot != nil {
		if err := apply(rec.Snapshot); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	for i, r := range rec.Records {
		if err := apply(r); err != nil {
			return fmt.Errorf("replay record %d: %w", rec.SnapshotLSN+uint64(i)+1, err)
		}
	}
	return nil
}

// AppendText appends s as uvarint(len(s)) followed by its bytes.
func AppendText(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// RecordReader consumes ops front to back. Every length is checked against
// what is left before it is used; the first thing that does not parse marks
// the reader bad and empties it, so whatever is read after it is
// zero-valued and cheap, and the caller checks Bad once at the end.
type RecordReader struct {
	b   []byte
	bad bool
}

// NewRecordReader reads b.
func NewRecordReader(b []byte) RecordReader { return RecordReader{b: b} }

// Fail marks the reader bad and empties it.
func (r *RecordReader) Fail() { r.bad, r.b = true, nil }

// Bad reports whether anything read did not parse.
func (r *RecordReader) Bad() bool { return r.bad }

// Len is how many bytes are left.
func (r *RecordReader) Len() int { return len(r.b) }

// Take returns the next n bytes, or nil; n comes from the record and may be
// anything.
func (r *RecordReader) Take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.Fail()
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// Text reads a text into a fresh string.
func (r *RecordReader) Text() string { return string(r.Take(r.Uvarint())) }

// Uvarint reads an unsigned varint.
func (r *RecordReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a signed varint.
func (r *RecordReader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}
