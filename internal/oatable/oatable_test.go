package oatable

import (
	"math/rand"
	"testing"
)

// TestTableMatchesMap files and unfiles seeded keys in a table that keeps
// them in a side array, as its owners do, and checks every key against a
// map after each step: backward-shift deletion must leave no key behind a
// gap in its probe run. The hash is a few bits of the key, so runs are long
// and wrap around the end of the table.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hash := func(k uint64) uint64 { return k % 13 }
	var keys []uint64 // cell v holds keys[v-1]
	where := map[uint64]uint32{}
	var tab Table
	find := func(k uint64) (int, uint32) {
		return tab.Probe(hash(k), func(v uint32) bool { return keys[v-1] == k })
	}
	for step := 0; step < 20000; step++ {
		k := uint64(rng.Intn(64))
		if _, ok := where[k]; ok && rng.Intn(2) == 0 {
			pos, v := find(k)
			if v != where[k] {
				t.Fatalf("step %d: key %d found as %d, filed as %d", step, k, v, where[k])
			}
			tab.Unfile(pos, func(v uint32) uint64 { return hash(keys[v-1]) })
			delete(where, k)
		} else if !ok {
			if tab.Crowded(len(where)+1, 6) {
				grown := make(Table, Size(len(where)+1, 6))
				for _, v := range where {
					grown.Place(hash(keys[v-1]), v)
				}
				tab = grown
			}
			keys = append(keys, k)
			v := uint32(len(keys))
			tab.Place(hash(k), v)
			where[k] = v
		}
		for k := uint64(0); k < 64; k++ {
			_, v := find(k)
			if v != where[k] {
				t.Fatalf("step %d: key %d found as %d, want %d", step, k, v, where[k])
			}
		}
	}
}

func TestSize(t *testing.T) {
	for _, c := range []struct{ n, load, want int }{{0, 6, 8}, {6, 6, 8}, {7, 6, 16}, {7, 7, 8}, {100, 6, 256}} {
		if got := Size(c.n, c.load); got != c.want {
			t.Fatalf("Size(%d, %d) = %d, want %d", c.n, c.load, got, c.want)
		}
	}
}
