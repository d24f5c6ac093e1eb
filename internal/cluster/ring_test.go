package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Property test for the consistent-hash ring, shaped like the ingest
// ordering property test (PR 8): each seed generates a randomized key
// population, the scenario asserts the ring's two contracts —
//
//  1. balance: under the stateless Owner mapping every shard's key count
//     is within 10% of uniform at 3, 5 and 8 shards;
//  2. minimal remap: when one shard joins or leaves, the stateless
//     Owner mapping moves only keys that touch the changed shard, and
//     no more than ~1/N of the population —
//
// and failures shrink to a smaller key population before reporting.
// Seeds are baked into subtest names, so a failure reproduces with
// `-run 'TestRingProperty/seed=17$'`.

type ringParams struct {
	seed int64
	keys int
}

func (p ringParams) String() string {
	return fmt.Sprintf("seed=%d keys=%d", p.seed, p.keys)
}

func randRingParams(seed int64) ringParams {
	rng := rand.New(rand.NewSource(seed))
	return ringParams{seed: seed, keys: 8000 + rng.Intn(8000)}
}

func ringKeys(p ringParams) []string {
	rng := rand.New(rand.NewSource(p.seed * 7919))
	keys := make([]string, p.keys)
	for i := range keys {
		// User-ID-shaped keys: the same population the simulator pools use.
		keys[i] = fmt.Sprintf("user-%d-%08x", i, rng.Uint64())
	}
	return keys
}

func shardIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("shard%d", i)
	}
	return ids
}

// runRingScenario checks balance and minimal-remap for one key population.
func runRingScenario(p ringParams) error {
	keys := ringKeys(p)

	// Balance: Owner, the mapping every router uses, keeps every shard
	// within 10% of uniform at each shard count.
	for _, n := range []int{3, 5, 8} {
		ring, err := NewRing(shardIDs(n), 0)
		if err != nil {
			return err
		}
		loads := make([]int, n)
		for _, k := range keys {
			loads[ring.OwnerIndex(k)]++
		}
		uniform := float64(len(keys)) / float64(n)
		for s, load := range loads {
			dev := (float64(load) - uniform) / uniform
			if dev > 0.10 || dev < -0.10 {
				return fmt.Errorf("balance: %d shards, shard %d has %d keys (uniform %.0f, deviation %+.1f%%)",
					n, s, load, uniform, 100*dev)
			}
		}
	}

	// Minimal remap: grow 3→4 shards and shrink 4→3, comparing stateless
	// Owner assignments key by key.
	small, err := NewRing(shardIDs(3), 0)
	if err != nil {
		return err
	}
	big, err := NewRing(shardIDs(4), 0)
	if err != nil {
		return err
	}
	added := "shard3"
	var joined, left int
	for _, k := range keys {
		before, after := small.Owner(k), big.Owner(k)
		if before != after {
			// A join may only pull keys onto the new shard; every other
			// ownership pair must be untouched.
			if after != added {
				return fmt.Errorf("join remap: key %q moved %s→%s, neither the added shard", k, before, after)
			}
			joined++
		}
		// Leave is the mirror image: removing shard3 from the 4-ring must
		// only move shard3's keys, back to their 3-ring owner.
		if before != after && before == added {
			return fmt.Errorf("join remap: key %q owned by %s before it existed", k, added)
		}
		if after == added {
			left++
		}
	}
	// The moved fraction is the new shard's arc: ~1/4 of the keyspace,
	// with slack for virtual-node skew and key-sampling noise.
	limit := int(1.15 * float64(len(keys)) / 4)
	if joined > limit {
		return fmt.Errorf("join remap: %d of %d keys moved (> %d, ~1/4 + slack)", joined, len(keys), limit)
	}
	if joined != left {
		return fmt.Errorf("remap asymmetry: %d keys joined shard3 but %d owned by it", joined, left)
	}
	return nil
}

// shrinkRing halves the key population while the scenario still fails.
func shrinkRing(p ringParams, firstErr error) (ringParams, error) {
	cur, curErr := p, firstErr
	for cur.keys > 100 {
		c := cur
		c.keys /= 2
		err := runRingScenario(c)
		if err == nil {
			break
		}
		cur, curErr = c, err
	}
	return cur, curErr
}

func TestRingProperty(t *testing.T) {
	const seeds = 40
	for seed := int64(1); seed <= seeds; seed++ {
		p := randRingParams(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if err := runRingScenario(p); err != nil {
				minP, minErr := shrinkRing(p, err)
				t.Fatalf("property violated with %v: %v\nshrunk to %v: %v", p, err, minP, minErr)
			}
		})
	}
}

func TestRingRejectsBadConfig(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Fatal("duplicate shard accepted")
	}
	if _, err := NewRing([]string{""}, 0); err == nil {
		t.Fatal("empty shard ID accepted")
	}
}

func TestRingOwnerDeterministic(t *testing.T) {
	r1, _ := NewRing([]string{"a", "b", "c"}, 64)
	r2, _ := NewRing([]string{"a", "b", "c"}, 64)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("user-%d", i)
		if r1.Owner(k) != r2.Owner(k) {
			t.Fatalf("key %q: owners differ across identical rings", k)
		}
		if r1.Shards()[r1.OwnerIndex(k)] != r1.Owner(k) {
			t.Fatalf("key %q: OwnerIndex disagrees with Owner", k)
		}
	}
}

// TestRingMatchesReference pins the ring to plain references: NewRing
// orders its points exactly as the sort.Slice on (hash, shard) it replaced
// did, and ownerPoint answers as a linear scan for the first point at or
// after the hash, wrapping to point 0, including for hashes equal to a
// point and above the last one.
func TestRingMatchesReference(t *testing.T) {
	for _, n := range []int{1, 3, 5, 8} {
		ring, err := NewRing(shardIDs(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		var ref []ringPoint
		for i, id := range ring.Shards() {
			for v := 0; v < DefaultVirtualNodes; v++ {
				ref = append(ref, ringPoint{hash: vnodeHash(id, v), shard: int32(i)})
			}
		}
		sort.Slice(ref, func(a, b int) bool {
			if ref[a].hash != ref[b].hash {
				return ref[a].hash < ref[b].hash
			}
			return ref[a].shard < ref[b].shard
		})
		if len(ref) != len(ring.points) {
			t.Fatalf("%d shards: %d points, reference has %d", n, len(ring.points), len(ref))
		}
		for i := range ref {
			if ring.points[i] != ref[i] {
				t.Fatalf("%d shards: point %d = %+v, reference %+v", n, i, ring.points[i], ref[i])
			}
		}
	}

	ring, err := NewRing(shardIDs(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(h uint64) int {
		for i, p := range ring.points {
			if p.hash >= h {
				return i
			}
		}
		return 0
	}
	last := ring.points[len(ring.points)-1].hash
	hashes := []uint64{0, ring.points[0].hash, ring.points[1].hash, ring.points[17].hash,
		last - 1, last, last + 1, ^uint64(0)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		hashes = append(hashes, rng.Uint64())
	}
	for _, h := range hashes {
		if got, want := ring.ownerPoint(h), scan(h); got != want {
			t.Fatalf("ownerPoint(%#x) = %d, linear scan %d", h, got, want)
		}
	}
	if last == ^uint64(0) || ring.ownerPoint(last+1) != 0 {
		t.Fatalf("a hash above the last point does not wrap to point 0")
	}
}

// BenchmarkNewRing builds the ring a three-shard deployment starts with.
func BenchmarkNewRing(b *testing.B) {
	ids := shardIDs(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRing(ids, 0); err != nil {
			b.Fatal(err)
		}
	}
}
