package topictrie

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// splitMatches is the historical strings.Split-based matcher with the
// '$' rule [MQTT-4.7.2-1] added; Matches and FilterTrie must agree with it
// (see also the package mqtt fuzz test).
func splitMatches(filter, topic string) bool {
	fl := strings.Split(filter, "/")
	tl := strings.Split(topic, "/")
	if strings.HasPrefix(topic, "$") && (fl[0] == "+" || fl[0] == "#") {
		return false
	}
	for i, f := range fl {
		if f == "#" {
			return true
		}
		if i >= len(tl) {
			return false
		}
		if f != "+" && f != tl[i] {
			return false
		}
	}
	return len(fl) == len(tl)
}

func TestNextLevelMirrorsSplit(t *testing.T) {
	for _, s := range []string{"", "a", "a/b/c", "/", "a/", "/a", "a//b", "//", "sensocial/device/dev42/trigger"} {
		want := strings.Split(s, "/")
		var got []string
		for pos, more := 0, true; more; {
			var seg string
			seg, pos, more = NextLevel(s, pos)
			got = append(got, seg)
		}
		if len(got) != len(want) {
			t.Fatalf("NextLevel(%q) yields %q, want %q", s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("NextLevel(%q) yields %q, want %q", s, got, want)
			}
		}
	}
}

func TestMatchesAgainstSplit(t *testing.T) {
	filters := []string{"a/b/c", "a/b", "a/+/c", "a/+/+", "+", "#", "a/#", "a/b/#", "+/+/#", "a", "", "a/", "/a", "+/#", "a/#/b", "x", "$a/#", "$a/+", "$a", "+a", "#/a"}
	topics := []string{"a/b/c", "a/b", "a", "a/b/c/d", "b", "", "a/", "/a", "a//c", "x", "$a", "$a/b", "$", "+a", "#/a"}
	for _, f := range filters {
		for _, tp := range topics {
			if got, want := Matches(f, tp), splitMatches(f, tp); got != want {
				t.Errorf("Matches(%q, %q) = %v, want %v", f, tp, got, want)
			}
		}
	}
}

// matchSorted returns the sorted values the trie yields for topic.
func matchSorted(tr *FilterTrie[string], topic string) []string {
	out, _ := tr.Match(topic, nil)
	sort.Strings(out)
	return out
}

func TestFilterTrieMatchesLikeLinearScan(t *testing.T) {
	filters := []string{"a/b/c", "a/b", "a/+/c", "a/+/+", "+", "#", "a/#", "a/b/#", "+/+/#", "a", "x/y", "$x/#", "$x/+", "$x/y"}
	tr := NewFilterTrie[string]()
	for _, f := range filters {
		tr.Subscribe(f, f)
	}
	if tr.Len() != len(filters) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(filters))
	}
	for _, topic := range []string{"a/b/c", "a/b", "a", "a/b/c/d", "b", "x/y", "a//c", "a/", "$x", "$x/y", "$x/y/z"} {
		var want []string
		for _, f := range filters {
			if splitMatches(f, topic) {
				want = append(want, f)
			}
		}
		sort.Strings(want)
		got := matchSorted(tr, topic)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("Match(%q) = %v, want %v", topic, got, want)
		}
	}
}

func TestFilterTrieUnsubscribeAndPrune(t *testing.T) {
	tr := NewFilterTrie[string]()
	tr.Subscribe("a/b", "s1")
	tr.Subscribe("a/b", "s2")
	tr.Subscribe("a/#", "s1")
	if n := tr.Unsubscribe("a/b", func(v string) bool { return v == "s1" }); n != 1 {
		t.Fatalf("Unsubscribe removed %d, want 1", n)
	}
	if got := matchSorted(tr, "a/b"); strings.Join(got, ",") != "s1,s2" {
		t.Fatalf("after partial unsubscribe Match = %v", got)
	}
	if n := tr.Unsubscribe("a/b", func(v string) bool { return v == "s2" }); n != 1 {
		t.Fatalf("Unsubscribe removed %d, want 1", n)
	}
	if n := tr.Unsubscribe("a/#", func(string) bool { return true }); n != 1 {
		t.Fatalf("Unsubscribe removed %d, want 1", n)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	// The emptied trie must have pruned back to a bare root.
	root := tr.root.Load()
	if !root.empty() {
		t.Fatalf("root not pruned: %+v", root)
	}
	if got, visited := tr.Match("a/b", nil); len(got) != 0 || visited != 1 {
		t.Fatalf("empty trie Match = %v (visited %d)", got, visited)
	}
	if n := tr.Unsubscribe("never/there", func(string) bool { return true }); n != 0 {
		t.Fatalf("Unsubscribe of absent filter removed %d", n)
	}
}

func TestFilterTrieVisitedIsSublinear(t *testing.T) {
	tr := NewFilterTrie[int]()
	for i := 0; i < 1000; i++ {
		tr.Subscribe(fmt.Sprintf("sensocial/device/dev%d/trigger", i), i)
	}
	out, visited := tr.Match("sensocial/device/dev7/trigger", nil)
	if len(out) != 1 || out[0] != 7 {
		t.Fatalf("Match = %v", out)
	}
	// One node per level on the single matching path (root, sensocial,
	// device, dev7, trigger) — not one per session.
	if visited > 10 {
		t.Fatalf("visited %d nodes for a 1-of-1000 match, want O(depth)", visited)
	}
}

// TestFilterTrieSnapshotReads pins the copy-on-write contract under the
// race detector: readers match while writers churn subscriptions, and a
// reader never observes a torn state (a filter it started with vanishing
// and reappearing mid-walk is fine; a crash or an impossible result set
// is not).
func TestFilterTrieSnapshotReads(t *testing.T) {
	tr := NewFilterTrie[int]()
	tr.Subscribe("stable/topic", -1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			f := fmt.Sprintf("churn/%d/+", i%8)
			tr.Subscribe(f, i)
			tr.Unsubscribe(f, func(int) bool { return true })
		}
	}()
	var dst []int
	for i := 0; i < 5000; i++ {
		dst, _ = tr.Match("stable/topic", dst[:0])
		if len(dst) != 1 || dst[0] != -1 {
			t.Errorf("stable subscription lost: %v", dst)
			break
		}
	}
	close(done)
	wg.Wait()
}

func BenchmarkFilterTrieMatch(b *testing.B) {
	tr := NewFilterTrie[int]()
	for i := 0; i < 1000; i++ {
		tr.Subscribe(fmt.Sprintf("sensocial/device/dev%d/trigger", i), i)
	}
	var dst []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = tr.Match("sensocial/device/dev7/trigger", dst[:0])
		if len(dst) != 1 {
			b.Fatal("want 1 match")
		}
	}
}

// TestSubscribeBytesDoNotScaleWithSiblings: a SUBSCRIBE under
// `sensocial/device` copies the path to its new filter, and the edge map
// there shares every sibling it does not touch, so the bytes a Subscribe
// and the Unsubscribe that undoes it allocate at 10 000 device filters
// stay within 3× of those at 100. When each write cloned the children map
// they grew with the device count. testing.Benchmark's byte count is
// exact; wall time would not be. (Pausing the timer around the
// Unsubscribe would read the memory statistics twice per op, which costs
// the test tens of seconds.)
func TestSubscribeBytesDoNotScaleWithSiblings(t *testing.T) {
	perSubscribe := func(n int) int64 {
		tr := NewFilterTrie[int]()
		for i := 0; i < n; i++ {
			tr.Subscribe(fmt.Sprintf("sensocial/device/dev%d/trigger", i), i)
		}
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr.Subscribe("sensocial/device/new/trigger", -1)
				tr.Unsubscribe("sensocial/device/new/trigger", func(int) bool { return true })
			}
		}).AllocedBytesPerOp()
	}
	small, large := perSubscribe(100), perSubscribe(10_000)
	if small <= 0 || large > 3*small {
		t.Fatalf("Subscribe+Unsubscribe allocates %d B at 10 000 siblings and %d B at 100, want at most 3×", large, small)
	}
}
