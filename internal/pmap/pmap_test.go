package pmap

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkEqual fails unless m holds exactly the bindings of want.
func checkEqual(t *testing.T, m Map[int], want map[string]int, ctx string) {
	t.Helper()
	if m.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", ctx, m.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("%s: Get(%q) = %d, %v; want %d", ctx, k, got, ok, v)
		}
	}
	if m.root != nil {
		var all []entry[int]
		m.root.collect(&all)
		if len(all) != len(want) {
			t.Fatalf("%s: trie holds %d entries, Len says %d", ctx, len(all), len(want))
		}
	}
}

// TestDifferentialAgainstGoMap drives Map and a Go map through the same
// seeded inserts, overwrites and deletes, at sizes on both sides of the
// flat-root threshold, and checks after every step that the two hold the
// same bindings and that every earlier version still holds its own.
func TestDifferentialAgainstGoMap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, keys := range []int{4, 12, 300, 5000} {
			t.Run(fmt.Sprintf("seed=%d/keys=%d", seed, keys), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var m Map[int]
				ref := map[string]int{}
				type version struct {
					m   Map[int]
					ref map[string]int
				}
				var versions []version
				for step := 0; step < 4*keys+200; step++ {
					k := fmt.Sprintf("k%d", rng.Intn(keys))
					switch op := rng.Intn(10); {
					case op < 6:
						m = m.Set(k, step)
						ref[k] = step
					default:
						if _, ok := m.Get(k); ok != (func() bool { _, ok := ref[k]; return ok })() {
							t.Fatalf("step %d: Get(%q) presence disagrees before Delete", step, k)
						}
						m = m.Delete(k)
						delete(ref, k)
					}
					if _, ok := m.Get("absent"); ok {
						t.Fatalf("step %d: absent key found", step)
					}
					if step%97 == 0 || keys <= 12 {
						checkEqual(t, m, ref, fmt.Sprintf("step %d", step))
						cp := make(map[string]int, len(ref))
						for k, v := range ref {
							cp[k] = v
						}
						versions = append(versions, version{m, cp})
					}
				}
				checkEqual(t, m, ref, "final")
				for i, v := range versions {
					checkEqual(t, v.m, v.ref, fmt.Sprintf("version %d", i))
				}
				for k := range ref {
					m = m.Delete(k)
				}
				if m.Len() != 0 || m.root != nil {
					t.Fatalf("emptied map keeps Len %d, root %v", m.Len(), m.root)
				}
			})
		}
	}
}

// TestTrieCollisions drives the trie below the flat root with hashes drawn
// from a tiny set, so keys share every hash bit: pushes down to the
// collision buckets under the last level, and folds back up on delete.
func TestTrieCollisions(t *testing.T) {
	for _, hashes := range [][]uint64{
		{0},
		{0, 1 << 63},
		{7, 7 | 1<<40, 7 | 1<<60, 1 << 5, 0},
	} {
		rng := rand.New(rand.NewSource(int64(len(hashes))))
		hashOf := map[string]uint64{}
		var root *node[int]
		ref := map[string]int{}
		for step := 0; step < 2000; step++ {
			k := fmt.Sprintf("c%d", rng.Intn(40))
			h, ok := hashOf[k]
			if !ok {
				h = hashes[rng.Intn(len(hashes))]
				hashOf[k] = h
			}
			if rng.Intn(3) > 0 {
				var added bool
				root, added = root.set(entry[int]{key: k, hash: h, val: step}, 0)
				_, had := ref[k]
				if added == had {
					t.Fatalf("step %d: set(%q) added=%v, key present before: %v", step, k, added, had)
				}
				ref[k] = step
			} else if root != nil {
				var removed bool
				root, removed = root.del(k, h, 0)
				_, had := ref[k]
				if removed != had {
					t.Fatalf("step %d: del(%q) removed=%v, key present before: %v", step, k, removed, had)
				}
				delete(ref, k)
			}
			for k, h := range hashOf {
				want, ok := ref[k]
				var got int
				var found bool
				if root != nil {
					got, found = root.get(k, h)
				}
				if found != ok || got != want {
					t.Fatalf("step %d: get(%q) = %d, %v; want %d, %v", step, k, got, found, want, ok)
				}
			}
			if (root == nil) != (len(ref) == 0) {
				t.Fatalf("step %d: root %v with %d keys", step, root, len(ref))
			}
		}
	}
}

// TestWriteCopiesOnlyThePath pins the point of the package: a write into a
// large map allocates a few nodes, not a copy of the map. At 100 000
// entries a Set must allocate less than a hundredth of what copying the
// entries would.
func TestWriteCopiesOnlyThePath(t *testing.T) {
	var m Map[int]
	for i := 0; i < 100_000; i++ {
		m = m.Set(fmt.Sprintf("key%d", i), i)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		m = m.Set(fmt.Sprintf("new%d", i), i)
		m = m.Delete(fmt.Sprintf("new%d", i))
		i++
	})
	// fmt.Sprintf twice, then at most a few nodes per level on each path.
	if allocs > 40 {
		t.Fatalf("Set+Delete at 100 000 entries allocates %.0f times, want a path's worth", allocs)
	}
}

func BenchmarkGet(b *testing.B) {
	for _, n := range []int{1, 1000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var m Map[int]
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("dev%d", i)
				m = m.Set(keys[i], i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := m.Get(keys[i%n]); !ok {
					b.Fatal("missing key")
				}
			}
		})
	}
}
