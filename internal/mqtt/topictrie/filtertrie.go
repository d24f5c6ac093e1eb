package topictrie

import (
	"sync"
	"sync/atomic"
)

// node is one level of the filter index. Nodes are immutable once
// published: every mutation clones the nodes along the touched path and
// swaps the root, so a reader that loaded the old root keeps a fully
// consistent snapshot.
type node[T any] struct {
	children map[string]*node[T] // literal next-level edges
	plus     *node[T]            // '+' single-level wildcard edge
	entries  []T                 // filters terminating exactly here
	hash     []T                 // filters terminating here with a trailing '#'
}

// empty reports whether the node holds nothing and can be pruned.
func (n *node[T]) empty() bool {
	return len(n.children) == 0 && n.plus == nil && len(n.entries) == 0 && len(n.hash) == 0
}

// clone shallow-copies a node for copy-on-write: the children map is
// duplicated (values shared), entry slices are shared until appendOne /
// removeWhere replace them. A nil receiver clones to a fresh empty node.
func (n *node[T]) clone() *node[T] {
	cp := &node[T]{}
	if n == nil {
		return cp
	}
	if len(n.children) > 0 {
		cp.children = make(map[string]*node[T], len(n.children)+1)
		for k, c := range n.children {
			cp.children[k] = c
		}
	}
	cp.plus = n.plus
	cp.entries = n.entries
	cp.hash = n.hash
	return cp
}

// appendOne returns a fresh slice with v appended. The input slice may be
// visible to concurrent readers, so in-place append is never safe here
// even with spare capacity.
func appendOne[T any](s []T, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s)
	out[len(s)] = v
	return out
}

// removeWhere returns a fresh slice without the entries matching pred,
// plus how many were dropped. nil input or no match returns the input
// unchanged.
func removeWhere[T any](s []T, pred func(T) bool) ([]T, int) {
	dropped := 0
	for _, v := range s {
		if pred(v) {
			dropped++
		}
	}
	if dropped == 0 {
		return s, 0
	}
	out := make([]T, 0, len(s)-dropped)
	for _, v := range s {
		if !pred(v) {
			out = append(out, v)
		}
	}
	return out, dropped
}

// FilterTrie indexes subscription filters to values of type T. Match is
// wait-free with respect to writers: it loads the current root once and
// walks immutable nodes. Writers (Subscribe, Unsubscribe) serialize on an
// internal mutex, rebuild the touched path, and publish a new root.
//
// Filters are assumed pre-validated (mqtt.ValidateTopicFilter): a `#`
// anywhere but the final level, or a non-whole-level wildcard, is
// indexed literally and will simply never match a concrete topic.
type FilterTrie[T any] struct {
	writeMu sync.Mutex
	root    atomic.Pointer[node[T]]
	size    atomic.Int64
}

// NewFilterTrie returns an empty index.
func NewFilterTrie[T any]() *FilterTrie[T] {
	t := &FilterTrie[T]{}
	t.root.Store(&node[T]{})
	return t
}

// Len reports the number of (filter, value) entries currently indexed.
func (t *FilterTrie[T]) Len() int { return int(t.size.Load()) }

// Subscribe adds v under filter. The same value may be added repeatedly;
// each copy matches (and must be removed) independently.
func (t *FilterTrie[T]) Subscribe(filter string, v T) {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	t.root.Store(insert(t.root.Load(), filter, 0, v))
	t.size.Add(1)
}

// insert returns a copy of n with v added at filter[pos:], cloning only
// the nodes along the path.
func insert[T any](n *node[T], filter string, pos int, v T) *node[T] {
	cp := n.clone()
	seg, next, more := NextLevel(filter, pos)
	if seg == "#" && !more {
		cp.hash = appendOne(cp.hash, v)
		return cp
	}
	var child *node[T]
	if seg == "+" {
		child = cp.plus
	} else if cp.children != nil {
		child = cp.children[seg]
	}
	var grown *node[T]
	if more {
		grown = insert(child, filter, next, v)
	} else {
		grown = child.clone()
		grown.entries = appendOne(grown.entries, v)
	}
	if seg == "+" {
		cp.plus = grown
	} else {
		if cp.children == nil {
			cp.children = make(map[string]*node[T], 1)
		}
		cp.children[seg] = grown
	}
	return cp
}

// Unsubscribe removes every entry under filter for which pred returns
// true, pruning emptied nodes, and reports how many entries were removed.
func (t *FilterTrie[T]) Unsubscribe(filter string, pred func(T) bool) int {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	newRoot, removed := remove(t.root.Load(), filter, 0, pred)
	if removed == 0 {
		return 0
	}
	if newRoot == nil {
		newRoot = &node[T]{}
	}
	t.root.Store(newRoot)
	t.size.Add(int64(-removed))
	return removed
}

// remove returns a copy of n without the matching entries at filter[pos:]
// (nil if the copy would be empty) and the number removed. When nothing
// matches, the original node is returned untouched.
func remove[T any](n *node[T], filter string, pos int, pred func(T) bool) (*node[T], int) {
	if n == nil {
		return nil, 0
	}
	seg, next, more := NextLevel(filter, pos)
	if seg == "#" && !more {
		kept, dropped := removeWhere(n.hash, pred)
		if dropped == 0 {
			return n, 0
		}
		cp := n.clone()
		cp.hash = kept
		if cp.empty() {
			return nil, dropped
		}
		return cp, dropped
	}
	var child *node[T]
	if seg == "+" {
		child = n.plus
	} else if n.children != nil {
		child = n.children[seg]
	}
	var shrunk *node[T]
	var dropped int
	if more {
		shrunk, dropped = remove(child, filter, next, pred)
	} else {
		if child == nil {
			return n, 0
		}
		var kept []T
		kept, dropped = removeWhere(child.entries, pred)
		if dropped > 0 {
			shrunk = child.clone()
			shrunk.entries = kept
			if shrunk.empty() {
				shrunk = nil
			}
		}
	}
	if dropped == 0 {
		return n, 0
	}
	cp := n.clone()
	if seg == "+" {
		cp.plus = shrunk
	} else if shrunk == nil {
		delete(cp.children, seg)
		if len(cp.children) == 0 {
			cp.children = nil
		}
	} else {
		cp.children[seg] = shrunk
	}
	if cp.empty() {
		return nil, dropped
	}
	return cp, dropped
}

// Match appends to dst the value of every indexed filter matching topic
// and returns the grown slice plus the number of trie nodes visited (the
// work done — the point of the trie is that it tracks the matching
// population, not the total session count). Reusing dst across calls
// makes the steady-state match allocation-free.
func (t *FilterTrie[T]) Match(topic string, dst []T) ([]T, int) {
	m := matcher[T]{topic: topic, dst: dst}
	root := t.root.Load()
	if !isDollar(topic) {
		m.walk(root, 0, false)
		return m.dst, m.visited
	}
	// A '$' topic skips the root's `#` entries and `+` edge
	// [MQTT-4.7.2-1]: only filters spelling out the first level match it.
	m.visited++
	seg, next, more := NextLevel(topic, 0)
	if child := root.children[seg]; child != nil {
		m.walk(child, next, !more)
	}
	return m.dst, m.visited
}

// matcher carries one Match traversal's state so the recursion shares a
// single stack-allocated record instead of per-frame closures.
type matcher[T any] struct {
	topic   string
	dst     []T
	visited int
}

// walk visits n, whose edges consume the topic level at pos. exhausted
// marks that every topic level has already been consumed, at which point
// entries terminating here match. Multi-level `#` subscribers match from
// any node on the path, including the parent level itself (§4.7.1.2).
func (m *matcher[T]) walk(n *node[T], pos int, exhausted bool) {
	m.visited++
	m.dst = append(m.dst, n.hash...)
	if exhausted {
		m.dst = append(m.dst, n.entries...)
		return
	}
	seg, next, more := NextLevel(m.topic, pos)
	if n.children != nil {
		if child := n.children[seg]; child != nil {
			m.walk(child, next, !more)
		}
	}
	if n.plus != nil {
		m.walk(n.plus, next, !more)
	}
}
