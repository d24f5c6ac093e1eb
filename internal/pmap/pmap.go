// Package pmap is a persistent (immutable) map from strings to values: a
// hash-array-mapped trie, 32 ways per level, over hash/maphash. Set and
// Delete return a new map and leave the receiver as it was, copying only
// the O(log32 n) nodes on the key's path; every other node is shared
// between the old and the new map. A map is therefore safe to read from
// any number of goroutines once published, and a copy-on-write table built
// on it pays O(log n) per write instead of a copy of every entry.
//
// A map of at most smallMax entries is one flat node that Get scans by
// key, without hashing: most of the maps the topic trie holds have one or
// two entries, and a lookup there costs what a Go map's does.
//
// The package is pure data structure: no clocks, no I/O and no in-module
// imports, so it sits at the bottom of the layering DAG.
package pmap

import (
	"hash/maphash"
	"math/bits"
)

const (
	// levelBits is the number of hash bits each level consumes: 32 ways.
	levelBits = 5
	levelMask = 1<<levelBits - 1
	// hashBits is the width of the hash; a path deeper than this ends in a
	// flat collision node.
	hashBits = 64
	// smallMax is the largest map kept as one flat node at the root.
	smallMax = 8
)

// seed keys the hash of every map in the process. Shapes therefore differ
// between processes; contents and Len never do.
var seed = maphash.MakeSeed()

// Map is a persistent string-keyed map. The zero value is an empty map.
// A Map is a small value; copy it freely.
type Map[V any] struct {
	root *node[V]
	size int
}

// entry is one key and its value, with the key's hash kept so a split
// never hashes again and a probe rejects most mismatches on the hash.
type entry[V any] struct {
	key  string
	hash uint64
	val  V
}

// node is one level of the trie in the compressed layout of Steindorfer
// and Vinju's CHAMP: datamap marks the slots holding an entry inline,
// nodemap the slots holding a sub-node, and data and nodes hold them in
// slot order. A node with both bitmaps zero is flat: data is a list of
// entries compared by key, which is the small root and the collision
// bucket below the last hash bit. Nodes are never mutated once reachable
// from a Map.
type node[V any] struct {
	datamap uint32
	nodemap uint32
	data    []entry[V]
	nodes   []*node[V]
}

func (n *node[V]) flat() bool { return n.datamap|n.nodemap == 0 }

// slot returns the bit of the slot h occupies at shift.
func slot(h uint64, shift uint) uint32 { return 1 << ((h >> shift) & levelMask) }

// index returns the position of bit's slot among the slots set in bitmap.
func index(bitmap, bit uint32) int { return bits.OnesCount32(bitmap & (bit - 1)) }

// Len reports the number of entries.
func (m Map[V]) Len() int { return m.size }

// Get returns the value stored under key and whether there is one.
func (m Map[V]) Get(key string) (V, bool) {
	if n := m.root; n != nil && !n.flat() {
		return n.get(key, maphash.String(seed, key))
	}
	return m.root.find(key)
}

// get looks key, whose hash is h, up in the trie under n.
func (n *node[V]) get(key string, h uint64) (V, bool) {
	for shift := uint(0); shift < hashBits; shift += levelBits {
		bit := slot(h, shift)
		if n.datamap&bit != 0 {
			if e := &n.data[index(n.datamap, bit)]; e.hash == h && e.key == key {
				return e.val, true
			}
			var zero V
			return zero, false
		}
		if n.nodemap&bit == 0 {
			var zero V
			return zero, false
		}
		n = n.nodes[index(n.nodemap, bit)]
	}
	return n.find(key)
}

// find scans a flat node's entries by key; a nil node holds none.
func (n *node[V]) find(key string) (V, bool) {
	if n != nil {
		if i := n.position(key); i >= 0 {
			return n.data[i].val, true
		}
	}
	var zero V
	return zero, false
}

// Set returns a map with key bound to v, replacing any earlier binding.
func (m Map[V]) Set(key string, v V) Map[V] {
	n := m.root
	if n == nil {
		return Map[V]{root: &node[V]{data: []entry[V]{{key: key, val: v}}}, size: 1}
	}
	if n.flat() {
		if i := n.position(key); i >= 0 {
			data := append([]entry[V](nil), n.data...)
			data[i].val = v
			return Map[V]{root: &node[V]{data: data}, size: m.size}
		}
		if m.size < smallMax {
			data := make([]entry[V], len(n.data)+1)
			copy(data, n.data)
			data[len(n.data)] = entry[V]{key: key, val: v}
			return Map[V]{root: &node[V]{data: data}, size: m.size + 1}
		}
		// The root outgrows the flat layout: hash every entry into a trie.
		var root *node[V]
		for _, e := range n.data {
			e.hash = maphash.String(seed, e.key)
			root, _ = root.set(e, 0)
		}
		root, _ = root.set(entry[V]{key: key, hash: maphash.String(seed, key), val: v}, 0)
		return Map[V]{root: root, size: m.size + 1}
	}
	root, added := n.set(entry[V]{key: key, hash: maphash.String(seed, key), val: v}, 0)
	if added {
		return Map[V]{root: root, size: m.size + 1}
	}
	return Map[V]{root: root, size: m.size}
}

// position returns the index of key in a flat node, or -1.
func (n *node[V]) position(key string) int {
	for i := range n.data {
		if n.data[i].key == key {
			return i
		}
	}
	return -1
}

// set returns a copy of the trie node n (nil for none) at shift with e
// stored, and whether e's key is new.
func (n *node[V]) set(e entry[V], shift uint) (*node[V], bool) {
	if n == nil {
		return &node[V]{datamap: slot(e.hash, shift), data: []entry[V]{e}}, true
	}
	if shift >= hashBits {
		cp := &node[V]{data: append([]entry[V](nil), n.data...)}
		if i := n.position(e.key); i >= 0 {
			cp.data[i] = e
			return cp, false
		}
		cp.data = append(cp.data, e)
		return cp, true
	}
	bit := slot(e.hash, shift)
	switch {
	case n.datamap&bit != 0:
		i := index(n.datamap, bit)
		old := n.data[i]
		if old.hash == e.hash && old.key == e.key {
			data := append([]entry[V](nil), n.data...)
			data[i] = e
			return &node[V]{datamap: n.datamap, nodemap: n.nodemap, data: data, nodes: n.nodes}, false
		}
		// Two keys share the slot: push both one level down.
		sub := pair(old, e, shift+levelBits)
		cp := &node[V]{datamap: n.datamap &^ bit, nodemap: n.nodemap | bit}
		cp.data = remove(n.data, i)
		cp.nodes = insert(n.nodes, index(cp.nodemap, bit), sub)
		return cp, true
	case n.nodemap&bit != 0:
		j := index(n.nodemap, bit)
		sub, added := n.nodes[j].set(e, shift+levelBits)
		return n.withNode(j, sub), added
	default:
		cp := &node[V]{datamap: n.datamap | bit, nodemap: n.nodemap, nodes: n.nodes}
		cp.data = insert(n.data, index(cp.datamap, bit), e)
		return cp, true
	}
}

// pair returns the node at shift holding the two distinct entries a and b.
func pair[V any](a, b entry[V], shift uint) *node[V] {
	if shift >= hashBits {
		return &node[V]{data: []entry[V]{a, b}}
	}
	ba, bb := slot(a.hash, shift), slot(b.hash, shift)
	switch {
	case ba == bb:
		return &node[V]{nodemap: ba, nodes: []*node[V]{pair(a, b, shift+levelBits)}}
	case ba < bb:
		return &node[V]{datamap: ba | bb, data: []entry[V]{a, b}}
	default:
		return &node[V]{datamap: ba | bb, data: []entry[V]{b, a}}
	}
}

// withNode returns a copy of n with sub-node j replaced by sub.
func (n *node[V]) withNode(j int, sub *node[V]) *node[V] {
	nodes := append([]*node[V](nil), n.nodes...)
	nodes[j] = sub
	return &node[V]{datamap: n.datamap, nodemap: n.nodemap, data: n.data, nodes: nodes}
}

// Delete returns a map without key. Deleting an absent key returns m.
func (m Map[V]) Delete(key string) Map[V] {
	n := m.root
	if n == nil {
		return m
	}
	if n.flat() {
		i := n.position(key)
		if i < 0 {
			return m
		}
		if m.size == 1 {
			return Map[V]{}
		}
		return Map[V]{root: &node[V]{data: remove(n.data, i)}, size: m.size - 1}
	}
	root, removed := n.del(key, maphash.String(seed, key), 0)
	if !removed {
		return m
	}
	if m.size-1 <= smallMax {
		// Back to the flat layout, so a map that shrank costs a small
		// map's lookup again.
		data := make([]entry[V], 0, m.size-1)
		root.collect(&data)
		return Map[V]{root: &node[V]{data: data}, size: m.size - 1}
	}
	return Map[V]{root: root, size: m.size - 1}
}

// del returns a copy of the trie node n at shift without key (nil if
// nothing is left) and whether key was there. A sub-node left holding a
// single entry is folded into its parent, so the trie stays canonical: a
// key sits at the shallowest level its hash prefix is unique at.
func (n *node[V]) del(key string, h uint64, shift uint) (*node[V], bool) {
	if shift >= hashBits {
		i := n.position(key)
		if i < 0 {
			return n, false
		}
		if len(n.data) == 1 {
			return nil, true
		}
		return &node[V]{data: remove(n.data, i)}, true
	}
	bit := slot(h, shift)
	switch {
	case n.datamap&bit != 0:
		i := index(n.datamap, bit)
		if e := n.data[i]; e.hash != h || e.key != key {
			return n, false
		}
		if len(n.data) == 1 && len(n.nodes) == 0 {
			return nil, true
		}
		return &node[V]{datamap: n.datamap &^ bit, nodemap: n.nodemap, data: remove(n.data, i), nodes: n.nodes}, true
	case n.nodemap&bit != 0:
		j := index(n.nodemap, bit)
		sub, removed := n.nodes[j].del(key, h, shift+levelBits)
		if !removed {
			return n, false
		}
		switch {
		case sub == nil:
			if len(n.nodes) == 1 && len(n.data) == 0 {
				return nil, true
			}
			return &node[V]{datamap: n.datamap, nodemap: n.nodemap &^ bit, data: n.data, nodes: remove(n.nodes, j)}, true
		case len(sub.data) == 1 && len(sub.nodes) == 0:
			if len(n.nodes) == 1 && len(n.data) == 0 {
				// The parent folds this node in turn.
				return &node[V]{datamap: slot(sub.data[0].hash, shift), data: sub.data}, true
			}
			cp := &node[V]{datamap: n.datamap | bit, nodemap: n.nodemap &^ bit}
			cp.data = insert(n.data, index(cp.datamap, bit), sub.data[0])
			cp.nodes = remove(n.nodes, j)
			return cp, true
		default:
			return n.withNode(j, sub), true
		}
	}
	return n, false
}

// collect appends every entry under n to out.
func (n *node[V]) collect(out *[]entry[V]) {
	*out = append(*out, n.data...)
	for _, c := range n.nodes {
		c.collect(out)
	}
}

// insert returns a fresh slice with v at position i.
func insert[E any](s []E, i int, v E) []E {
	out := make([]E, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// remove returns a fresh slice without position i (nil when empty).
func remove[E any](s []E, i int) []E {
	if len(s) == 1 {
		return nil
	}
	out := make([]E, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}
