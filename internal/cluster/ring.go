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
	"math"
	"math/bits"
)

// DefaultVirtualNodes is the number of ring points each shard projects.
// 2048 points per shard keeps key distribution within a few percent of
// uniform (the ring property test asserts <10% skew at 3/5/8 shards)
// while the point array and its bucket index stay small enough to rebuild
// on any membership change.
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
//
// The points are sorted by (hash, shard) and indexed by bucket: the top
// bits of a hash name one of 2^⌈log₂ len(points)⌉ buckets, and starts[b]
// is the index of the first point at or above bucket b's lowest hash. A
// lookup reads its bucket's start and steps past the at most one point
// a bucket holds on average, instead of binary-searching the whole
// array. See DESIGN.md §12.
type Ring struct {
	shards []string
	points []ringPoint
	starts []int32
	shift  uint // 64 minus the bucket bits: h>>shift is h's bucket
}

// NewRing builds a ring over the given shard IDs with vnodes virtual
// nodes per shard (non-positive means DefaultVirtualNodes). Shard IDs
// must be unique and non-empty.
//
// The build is linear: one counting pass files the points into their
// buckets, and an insertion sort orders each bucket by (hash, shard),
// moving a point only past the few others in its bucket.
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	// starts holds point indexes as int32.
	if vnodes > math.MaxInt32/len(shards) {
		return nil, fmt.Errorf("cluster: %d shards × %d virtual nodes is over %d ring points", len(shards), vnodes, math.MaxInt32)
	}
	seen := make(map[string]struct{}, len(shards))
	n := len(shards) * vnodes
	unsorted := make([]ringPoint, 0, n)
	for i, id := range shards {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty shard ID")
		}
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard ID %q", id)
		}
		seen[id] = struct{}{}
		for v := 0; v < vnodes; v++ {
			unsorted = append(unsorted, ringPoint{hash: vnodeHash(id, v), shard: int32(i)})
		}
	}
	r := &Ring{
		shards: append([]string(nil), shards...),
		points: make([]ringPoint, n),
		shift:  uint(64 - bits.Len(uint(n-1))),
	}
	r.starts = make([]int32, 1<<(64-r.shift))
	// Count each bucket's points, turn the counts into start offsets, and
	// file the points in input order, each start advancing to its bucket's
	// end (the next bucket's start), which one shift moves back.
	for _, p := range unsorted {
		r.starts[p.hash>>r.shift]++
	}
	var next int32
	for b, c := range r.starts {
		r.starts[b], next = next, next+c
	}
	for _, p := range unsorted {
		b := p.hash >> r.shift
		r.points[r.starts[b]] = p
		r.starts[b]++
	}
	copy(r.starts[1:], r.starts)
	r.starts[0] = 0
	// Every earlier bucket's points hash lower, so this moves each point
	// only within its bucket.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && comparePoints(r.points[j], r.points[j-1]) < 0; j-- {
			r.points[j], r.points[j-1] = r.points[j-1], r.points[j]
		}
	}
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
// It starts at h's bucket's first point; every point from there on in a
// later bucket hashes higher than h, so the step loop never leaves h's
// bucket except onto the answer.
func (r *Ring) ownerPoint(h uint64) int {
	i := int(r.starts[h>>r.shift])
	for i < len(r.points) && r.points[i].hash < h {
		i++
	}
	if i == len(r.points) {
		return 0
	}
	return i
}

// keyHash is FNV-1a 64 over the key bytes plus an avalanche finalizer,
// allocation-free. The finalizer matters: ring lookups bucket on the top
// bits and compare the full 64-bit value, and raw FNV leaves the high bits
// poorly mixed, which shows up as multi-percent arc-weight skew between
// shards.
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
