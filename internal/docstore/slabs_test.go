package docstore

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/oatable"
)

func gcHeap() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// TestCollectionHeapObjectsIndependentOfDocs pins that a collection at rest
// is a handful of Go objects — its chunks, slots and id table — however many
// documents it holds, so the collector has nothing per document to mark.
func TestCollectionHeapObjectsIndependentOfDocs(t *testing.T) {
	c := NewStore().Collection("items")
	if _, err := c.Insert(itemDoc(0)); err != nil { // field names interned
		t.Fatal(err)
	}
	before := gcHeap().HeapObjects
	for i := 1; i <= 20000; i++ {
		if _, err := c.Insert(itemDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	grew := int64(gcHeap().HeapObjects) - int64(before)
	t.Logf("20 000 inserts: %d more heap objects, %d chunks", grew, len(c.slabs))
	if grew > 64 {
		t.Fatalf("20 000 inserts left %d more heap objects, want <= 64 (%d chunks)", grew, len(c.slabs))
	}
	runtime.KeepAlive(c)
}

// TestUpdateChurnCompacts rewrites 1 000 documents 200 times each: the
// superseded records are compacted away, so the collection retains at most
// twice its live bytes and one chunk, while readers that race the rewrites
// keep decoding what they were handed.
func TestUpdateChurnCompacts(t *testing.T) {
	const docs, updates = 1000, 200000
	before := gcHeap().HeapAlloc
	c := NewStore().Collection("users")
	if err := c.CreateIndex("city"); err != nil {
		t.Fatal(err)
	}
	byID := make([]Doc, docs)
	for i := range byID {
		byID[i] = Doc{IDField: fmt.Sprintf("u%04d", i)}
		if _, err := c.Insert(Doc{IDField: byID[i][IDField], "city": "Paris", "v": 0, "friends": []any{"a", "b"}}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := byID[i%docs][IDField].(string)
			d, err := c.Get(id)
			if err != nil || d[IDField] != id || d["city"] != "Paris" {
				t.Errorf("Get(%q) = %v, %v during churn", id, d, err)
				return
			}
		}
	}()
	for i := 0; i < updates; i++ {
		q := byID[i%docs]
		if n, err := c.Update(q, Doc{"$set": Doc{"v": i}}); err != nil || n != 1 {
			t.Fatalf("Update(%v) = %d, %v", q, n, err)
		}
	}
	close(stop)
	wg.Wait()

	retained := int64(gcHeap().HeapAlloc) - int64(before)
	compactions, _ := c.reorganizations()
	c.mu.RLock()
	live := c.liveBytes
	c.mu.RUnlock()
	t.Logf("%d compactions; %d B retained for %d live entry bytes", compactions, retained, live)
	if compactions == 0 {
		t.Fatal("no compaction")
	}
	if limit := int64(2*live + maxChunk); retained > limit {
		t.Fatalf("retained %d B, want <= 2 × %d live + one chunk = %d", retained, live, limit)
	}
	if got := len(mustFind(t, c, Doc{"city": "Paris"})); got != docs {
		t.Fatalf("index finds %d documents after churn, want %d", got, docs)
	}
	if d, err := c.Get("u0007"); err != nil || d["v"] != updates-docs+7 {
		t.Fatalf("Get(u0007) = %v, %v; want v %d", d, err, updates-docs+7)
	}
}

// TestInsertDeleteChurnRenumbers keeps a window of 100 documents while
// 30 000 pass through it: the slots, the id table and the slabs stay sized
// for the window, not for everything that was ever inserted.
func TestInsertDeleteChurnRenumbers(t *testing.T) {
	const window, total = 100, 30000
	c := NewStore().Collection("events")
	if err := c.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if _, err := c.Insert(Doc{"k": i % 7, "n": i}); err != nil {
			t.Fatal(err)
		}
		if i >= window {
			if n, err := c.Delete(Doc{IDField: fmt.Sprintf("events-%d", i-window+1)}); err != nil || n != 1 {
				t.Fatalf("Delete #%d = %d, %v", i-window+1, n, err)
			}
		}
	}
	compactions, renumberings := c.reorganizations()
	c.mu.RLock()
	slots, table, chunks := len(c.slots), len(c.ids), 0
	for _, s := range c.slabs {
		chunks += cap(s)
	}
	c.mu.RUnlock()
	t.Logf("%d compactions, %d renumberings; %d slots, %d table entries, %d B of chunks",
		compactions, renumberings, slots, table, chunks)
	if renumberings == 0 || compactions == 0 {
		t.Fatalf("%d compactions and %d renumberings, want both", compactions, renumberings)
	}
	if slots > 2*window+1 || table > oatable.Size(2*window, idLoad) || chunks > 2*maxChunk {
		t.Fatalf("%d slots, %d table entries, %d B of chunks for %d documents", slots, table, chunks, window)
	}
	docs := mustFind(t, c, Doc{"k": 3})
	for i := 1; i < len(docs); i++ {
		if docs[i]["n"].(int) <= docs[i-1]["n"].(int) {
			t.Fatalf("indexed find out of insertion order after renumbering: %v", ids(docs))
		}
	}
	if c.Len() != window || len(docs) == 0 {
		t.Fatalf("Len = %d, %d found; want %d and some", c.Len(), len(docs), window)
	}
}

// TestFootprintCountsWhatCollectionsKeep checks Store.Footprint against the
// heap: across two collections it counts every document, and its bytes are
// no more than the inserts retained and at least half of it (it leaves out
// the unused tail of each slab chunk and Go's own overhead).
func TestFootprintCountsWhatCollectionsKeep(t *testing.T) {
	s := NewStore()
	if docs, bytes := s.Footprint(); docs != 0 || bytes != 0 {
		t.Fatalf("empty store: Footprint = %d, %d", docs, bytes)
	}
	before := gcHeap().HeapAlloc
	items, users := s.Collection("items"), s.Collection("users")
	for i := 0; i < 20000; i++ {
		if _, err := items.Insert(actionDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := users.Insert(Doc{IDField: fmt.Sprintf("u%05d", i), "city": "Paris"}); err != nil {
			t.Fatal(err)
		}
	}
	retained := int(gcHeap().HeapAlloc - before)
	docs, bytes := s.Footprint()
	t.Logf("%d documents, %d B counted, %d B retained", docs, bytes, retained)
	if docs != 20100 || bytes > retained || bytes < retained/2 {
		t.Fatalf("Footprint = %d documents, %d B; want 20100 and between %d and %d B", docs, bytes, retained/2, retained)
	}
	if n, err := items.Delete(Doc{"user": "u00003"}); err != nil || n == 0 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	if docs, _ := s.Footprint(); docs != 20100-79 { // i%256 == 3 for 79 of the 20 000
		t.Fatalf("after deleting user u00003's items Footprint counts %d documents", docs)
	}
	runtime.KeepAlive(s)
}
