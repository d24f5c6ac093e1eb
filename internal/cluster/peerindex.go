package cluster

import (
	"repro/internal/mqtt/topictrie"
)

// PeerIndex merges every peer shard's subscription summary into one
// copy-on-write FilterTrie keyed by peer ordinal. Deciding which peers a
// PUBLISH must be forwarded to is then a single trie walk whose cost
// scales with the matching filter population, not the peer count (the
// benchmark reports it as cluster.peerindex_match_ns). Writers (summary
// delta/snapshot application) serialize inside the trie; Match is
// wait-free and safe against concurrent writes.
type PeerIndex struct {
	trie *topictrie.FilterTrie[int32]
	n    int
}

// NewPeerIndex returns an empty index over peer ordinals [0, peers).
func NewPeerIndex(peers int) *PeerIndex {
	return &PeerIndex{trie: topictrie.NewFilterTrie[int32](), n: peers}
}

// Peers returns the ordinal space size.
func (x *PeerIndex) Peers() int { return x.n }

// Len returns the number of distinct filters indexed.
func (x *PeerIndex) Len() int { return x.trie.Len() }

// Add records that peer's summary contains filter. The caller must not
// add the same (peer, filter) pair twice without an intervening Remove.
func (x *PeerIndex) Add(peer int, filter string) {
	x.trie.Subscribe(filter, int32(peer))
}

// Remove drops one (peer, filter) pair.
func (x *PeerIndex) Remove(peer int, filter string) {
	x.trie.Unsubscribe(filter, func(v int32) bool { return v == int32(peer) })
}

// MatchScratch is reusable per-call state for Match: the trie result
// slice plus a generation-stamped dedup table, so repeated matches
// allocate nothing. Not safe for concurrent use; pool one per caller.
type MatchScratch struct {
	vals []int32
	seen []uint64
	gen  uint64
	out  []int32
}

// Match returns the deduplicated peer ordinals whose summaries match
// topic. The returned slice aliases sc and is valid until the next Match
// with the same scratch.
func (x *PeerIndex) Match(topic string, sc *MatchScratch) []int32 {
	sc.gen++
	if len(sc.seen) < x.n {
		sc.seen = make([]uint64, x.n)
	}
	sc.vals, _ = x.trie.Match(topic, sc.vals[:0])
	out := sc.out[:0]
	for _, v := range sc.vals {
		if sc.seen[v] == sc.gen {
			continue
		}
		sc.seen[v] = sc.gen
		out = append(out, v)
	}
	sc.out = out
	return out
}
