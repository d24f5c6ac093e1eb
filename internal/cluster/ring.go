// Package cluster shards the SenSocial middleware horizontally: a
// consistent-hash ring assigns every user to one server shard, and a
// broker bridge links the per-shard MQTT brokers so a PUBLISH crosses a
// shard boundary only when the remote shard provably has a matching
// subscriber. The bridge learns what peers subscribe to from a compact
// summary digest — incremental deltas plus retained snapshots on a
// control topic — merged into one copy-on-write FilterTrie, so the
// per-publish bridge check is a single trie walk regardless of how many
// peers the ring has. See DESIGN.md §12.
package cluster

import (
	"fmt"
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
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		// Ties (astronomically rare) resolve by shard index so the ring
		// is identical regardless of input order.
		return pa.shard < pb.shard
	})
	return r, nil
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
func (r *Ring) ownerPoint(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Placement assigns keys with the bounded-load variant of consistent
// hashing: each shard accepts at most ceil(c · t / n) keys, where t is
// the number of keys assigned so far (including the one being placed), n
// the shard count and c the load factor. A key whose ring successor is
// full walks to the next distinct shard clockwise. Unlike Ring.Owner,
// Assign is stateful — the answer depends on the keys placed before it —
// so a Placement is for carving a known population (a simulated fleet, a
// batch import) into near-perfectly balanced partitions, while Owner is
// for stateless per-message routing.
type Placement struct {
	ring   *Ring
	factor float64
	loads  []int
	total  int
}

// NewPlacement wraps ring with bounded-load assignment at load factor c
// (values ≤ 1 mean the conventional 1.25). Not safe for concurrent use.
func NewPlacement(ring *Ring, c float64) *Placement {
	if c <= 1 {
		c = 1.25
	}
	return &Placement{ring: ring, factor: c, loads: make([]int, len(ring.shards))}
}

// Assign places key on the first non-full shard clockwise from its hash
// position and returns that shard's index into Shards().
func (p *Placement) Assign(key string) int {
	p.total++
	// capacity = ceil(c * total / n)
	n := len(p.loads)
	cap := int(p.factor*float64(p.total)+float64(n)-1) / n
	if cap < 1 {
		cap = 1
	}
	start := p.ring.ownerPoint(keyHash(key))
	i := start
	for {
		s := p.ring.points[i].shard
		if p.loads[s] < cap {
			p.loads[s]++
			return int(s)
		}
		i++
		if i == len(p.ring.points) {
			i = 0
		}
		if i == start {
			// Every shard at capacity simultaneously cannot happen
			// (capacity ceiling sums past total), but fall back to the
			// ring owner rather than spin.
			s := p.ring.points[start].shard
			p.loads[s]++
			return int(s)
		}
	}
}

// Loads returns the number of keys assigned to each shard so far,
// indexed like Shards().
func (p *Placement) Loads() []int { return append([]int(nil), p.loads...) }

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
