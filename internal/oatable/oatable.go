// Package oatable is an open-addressed hash table of uint32 cells, probed
// linearly from a key's home cell, with 0 marking an empty cell. What a cell
// holds and how a key compares with it belong to the owner: a document
// collection's id table holds slot+1 and compares ids in its slabs, its
// value dictionary holds offset+1 and compares the bytes there, and the
// server's context registry holds a user's slot+1 and compares the name in
// its name chunks. No owner keeps a key in the table, so it has no
// pointers. Its size is a power of two, at least 8, grown by the owner to
// keep the load under its own bound, in eighths.
//
// The package is pure data structure: no clocks, no I/O and no in-module
// imports, so it sits at the bottom of the layering DAG.
package oatable

// Table is the cell array.
type Table []uint32

// Probe walks the run from h's home cell and returns the position and cell
// of the first cell eq accepts, or the empty position where the key would go
// and 0.
//
//sensolint:hotpath
func (t Table) Probe(h uint64, eq func(v uint32) bool) (pos int, v uint32) {
	if len(t) == 0 {
		return 0, 0
	}
	mask := uint64(len(t) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if v := t[i]; v == 0 || eq(v) {
			return int(i), v
		}
	}
}

// Place puts v, whose key hashes to h, in the first empty cell of its run.
func (t Table) Place(h uint64, v uint32) {
	mask := uint64(len(t) - 1)
	i := h & mask
	for t[i] != 0 {
		i = (i + 1) & mask
	}
	t[i] = v
}

// Crowded reports whether n filled cells would take t past load eighths.
func (t Table) Crowded(n, load int) bool { return n*8 > len(t)*load }

// Unfile empties position pos by backward shift: each cell after it in the
// probe run moves back if pos lies between its home and where it sits, so no
// lookup ever meets a gap before its key. hash returns a cell's key hash.
func (t Table) Unfile(pos int, hash func(v uint32) uint64) {
	mask := uint64(len(t) - 1)
	i := uint64(pos)
	for j := (i + 1) & mask; t[j] != 0; j = (j + 1) & mask {
		if (j-hash(t[j]))&mask >= (j-i)&mask {
			t[i] = t[j]
			i = j
		}
	}
	t[i] = 0
}

// Size is the smallest power of two, at least 8, that holds n cells at a
// load of at most load eighths.
func Size(n, load int) int {
	size := 8
	for size*load < n*8 {
		size *= 2
	}
	return size
}
