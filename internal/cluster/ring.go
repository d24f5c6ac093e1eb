// Package cluster shards the SenSocial middleware horizontally: a
// consistent-hash ring assigns every user to one server shard, and a
// broker bridge links the per-shard MQTT brokers so a PUBLISH crosses a
// shard boundary only when the remote shard provably has a matching
// subscriber. The bridge learns what peers subscribe to from each peer's
// summary, its filter set split into hash buckets that travel as retained
// messages on a control topic, a change republishing only its bucket,
// merged into one copy-on-write FilterTrie, so the
// per-publish bridge check is a single trie walk regardless of how many
// peers the ring has. See DESIGN.md §12.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// DefaultVirtualNodes is the number of ring points each shard projects.
// 2048 points per shard keeps key distribution within a few percent of
// uniform (the ring property test asserts <10% skew at 3/5/8 shards)
// while the sorted-point array stays small enough to rebuild on any
// membership change.
const DefaultVirtualNodes = 2048

// ringPoint is one virtual node: a hash position owned by a shard.
type ringPoint struct {
	hash  uint64
	shard int32
}

// Ring is an immutable consistent-hash ring mapping keys (user IDs) to
// shard IDs. Lookups are read-only and safe for concurrent use; a
// membership change builds a new Ring. Because each shard's virtual
// nodes hash independently of the other shards, adding or removing one
// shard remaps only the keys that land on (or leave) that shard's
// points — about 1/N of the keyspace, which the property test pins down.
type Ring struct {
	shards []string
	points []ringPoint
}

// NewRing builds a ring over the given shard IDs with vnodes virtual
// nodes per shard (non-positive means DefaultVirtualNodes). Shard IDs
// must be unique and non-empty.
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]struct{}, len(shards))
	r := &Ring{
		shards: append([]string(nil), shards...),
		points: make([]ringPoint, 0, len(shards)*vnodes),
	}
	for i, id := range r.shards {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty shard ID")
		}
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard ID %q", id)
		}
		seen[id] = struct{}{}
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(id, v), shard: int32(i)})
		}
	}
	slices.SortFunc(r.points, comparePoints)
	return r, nil
}

// comparePoints orders ring points by hash. Ties (astronomically rare)
// resolve by shard index so the ring is identical regardless of input
// order.
func comparePoints(a, b ringPoint) int {
	if c := cmp.Compare(a.hash, b.hash); c != 0 {
		return c
	}
	return cmp.Compare(a.shard, b.shard)
}

// Shards returns the shard IDs the ring was built over, in input order.
func (r *Ring) Shards() []string { return r.shards }

// VirtualNodes returns how many ring points each shard projects.
func (r *Ring) VirtualNodes() int { return len(r.points) / len(r.shards) }

// Owner returns the shard ID owning key: the first virtual node at or
// after the key's hash position, wrapping at the top of the ring.
func (r *Ring) Owner(key string) string {
	return r.shards[r.points[r.ownerPoint(keyHash(key))].shard]
}

// OwnerIndex is Owner but returns the shard's index into Shards().
func (r *Ring) OwnerIndex(key string) int {
	return int(r.points[r.ownerPoint(keyHash(key))].shard)
}

// ownerPoint returns the index of the first point at or after h, wrapping.
// sort.Search and its closure are inlined here: the compiled loop is the
// hand-written lower bound's, with no call per probe.
func (r *Ring) ownerPoint(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// keyHash is FNV-1a 64 over the key bytes plus an avalanche finalizer,
// allocation-free. The finalizer matters: ring lookups binary-search on
// the full 64-bit value, and raw FNV leaves the high bits poorly mixed,
// which shows up as multi-percent arc-weight skew between shards.
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return fmix64(h)
}

// vnodeHash hashes shard ID plus virtual-node index without allocating.
func vnodeHash(id string, vnode int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	for s := 0; s < 32; s += 8 {
		h ^= uint64(vnode>>s) & 0xff
		h *= 1099511628211
	}
	return fmix64(h)
}

// fmix64 is the murmur3 64-bit finalizer: full avalanche, so every input
// bit flips every output bit with probability ~1/2.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
