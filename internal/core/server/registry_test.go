package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sensors"
)

// retainedPerUser builds a registry, lets fill populate it for n users and
// returns the heap bytes and objects the registry retains per user,
// measured between two forced collections. The user ids exist before the
// first measurement, and fill hands the registry fresh copies of them, as
// decoded items do, so whatever the registry keeps of a caller's string is
// counted.
func retainedPerUser(n int, fill func(r *ContextRegistry, user string)) (bytes, objects float64) {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("user%05d", i)
	}
	heap := func() (uint64, uint64) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.HeapObjects
	}
	bytes0, objects0 := heap()
	r := NewContextRegistry(8, nil)
	for _, id := range ids {
		fill(r, id)
	}
	bytes1, objects1 := heap()
	runtime.KeepAlive(r)
	runtime.KeepAlive(ids)
	return (float64(bytes1) - float64(bytes0)) / float64(n), float64(objects1) - float64(objects0)
}

// oneValue and fullUser are sim_fleet's and the uplink_* workloads' users:
// one activity value, or three values and a remembered location. Every
// string is a fresh copy.
func oneValue(r *ContextRegistry, u string) {
	_ = r.Set(strings.Clone(u), core.CtxPhysicalActivity, strings.Clone("walking"))
}

func fullUser(r *ContextRegistry, u string) {
	oneValue(r, u)
	_ = r.Set(strings.Clone(u), core.CtxAudioEnvironment, strings.Clone("silent"))
	_ = r.Set(strings.Clone(u), core.CtxPlace, strings.Clone("Paris"))
	r.RememberLocation(strings.Clone(u), geo.Point{Lat: 48.8566, Lon: 2.3522}, strings.Clone("Paris"))
}

// TestRegistryRetainedBytesPerUser pins what one idle user costs the
// server (ROADMAP item 3): sim_fleet's shape, 20 000 users holding one
// context value each, must stay under 48 B per user. A map per user read
// about 370 B here, a record per user 103 B plus the caller's strings it
// kept.
func TestRegistryRetainedBytesPerUser(t *testing.T) {
	const users = 20000
	one, _ := retainedPerUser(users, oneValue)
	t.Logf("one value: %.0f B/user", one)
	if one > 48 {
		t.Fatalf("registry retains %.0f B per user holding one value, want <= 48", one)
	}
	full, _ := retainedPerUser(users, fullUser)
	t.Logf("three values and a location: %.0f B/user", full)
}

// TestRegistryHeapObjectsDoNotGrowWithUsers: the registry holds no Go
// object per user. Ten times the users add only name chunks, one per 4 KiB
// of user ids, and grown tables: under one object per 100 users added,
// where a record per user added one each and its map more.
func TestRegistryHeapObjectsDoNotGrowWithUsers(t *testing.T) {
	for _, fill := range []func(*ContextRegistry, string){oneValue, fullUser} {
		_, small := retainedPerUser(2000, fill)
		_, large := retainedPerUser(20000, fill)
		t.Logf("heap objects: %.0f at 2 000 users, %.0f at 20 000", small, large)
		if large-small > 18000/100 {
			t.Fatalf("18 000 more users added %.0f heap objects, want under 180", large-small)
		}
	}
}

// TestContextBytesGrowsWithUsersNotWrites: sensocial_context_bytes follows
// the users the registry holds, and repeated writes of values it already
// holds (or of values that replace ones no other user holds) leave it
// where it was.
func TestContextBytesGrowsWithUsersNotWrites(t *testing.T) {
	metrics := obs.NewRegistry()
	r := NewContextRegistry(4, metrics)
	fill := func(from, to int) {
		for i := from; i < to; i++ {
			fullUser(r, fmt.Sprintf("user%05d", i))
		}
	}
	fill(0, 1000)
	at1k := metrics.Sum("sensocial_context_bytes")
	fill(1000, 10000)
	at10k := metrics.Sum("sensocial_context_bytes")
	t.Logf("context bytes: %d at 1 000 users, %d at 10 000", at1k, at10k)
	if at1k == 0 || at10k < 5*at1k {
		t.Fatalf("context bytes %d at 1 000 users, %d at 10 000: want growth with users", at1k, at10k)
	}
	labels := []string{"still", "walking", "running"}
	for round := 0; round < 20; round++ {
		fill(0, 10000)
		for i := 0; i < 10000; i++ {
			u := fmt.Sprintf("user%05d", i)
			_ = r.Set(u, core.CtxPhysicalActivity, labels[(i+round)%3])
			_ = r.Set(u, core.CtxTimeOfDay, fmt.Sprintf("%02d:%02d", round, i%60))
		}
	}
	after := metrics.Sum("sensocial_context_bytes")
	if grew := float64(after) - float64(at10k); grew > 0.05*float64(at10k) {
		t.Fatalf("20 rounds of rewrites grew context bytes %d -> %d", at10k, after)
	}
}

// TestRegistryDictionaryFreesUnheldValues: a value no field holds any more
// leaves the dictionary, so one user going through 100 000 distinct values
// holds about what one value costs; values past the dictionary's bound or
// its length limit are kept in the overflow map, and leave it again when
// they are replaced.
func TestRegistryDictionaryFreesUnheldValues(t *testing.T) {
	metrics := obs.NewRegistry()
	r := newContextRegistry(1, metrics, 3)
	_ = r.Set("ann", core.CtxPlace, "Bergen")
	_ = r.Set("zed", core.CtxPlace, "Oslo") // moved by the compactions
	for i := 0; i < 100000; i++ {
		_ = r.Set("ann", core.CtxPlace, fmt.Sprintf("place-%d", i))
	}
	if b := metrics.Sum("sensocial_context_bytes"); b > 4*chunkSize {
		t.Fatalf("context bytes %d after 100 000 replaced values, want <= %d", b, 4*chunkSize)
	}
	long := strings.Repeat("x", valueMax+1)
	_ = r.Set("ann", core.CtxPlace, "Paris")
	_ = r.Set("bob", core.CtxPlace, "Lyon")
	_ = r.Set("cyd", core.CtxPlace, "Milan") // dictionary full (Oslo, Paris, Lyon): overflow
	_ = r.Set("dee", core.CtxPlace, long)    // too long: overflow
	sh := &r.shards[0]
	if len(sh.over) != 2 {
		t.Fatalf("overflow holds %d values, want 2", len(sh.over))
	}
	want := core.Context{"ann/place": "Paris", "bob/place": "Lyon", "cyd/place": "Milan", "dee/place": long, "zed/place": "Oslo"}
	if got := r.SnapshotAll(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SnapshotAll = %v, want %v", got, want)
	}
	_ = r.Set("cyd", core.CtxPlace, "Paris")
	_ = r.Set("dee", core.CtxPlace, "Lyon")
	if len(sh.over) != 0 {
		t.Fatalf("overflow holds %d values after they were replaced", len(sh.over))
	}
}

// neighbours returns a registry of n shards in which 64 users walk and 64
// run, so that every shard's dictionary holds both labels.
func neighbours(n int) *ContextRegistry {
	r := NewContextRegistry(n, nil)
	for i := 0; i < 64; i++ {
		_ = r.Set(fmt.Sprintf("walker%d", i), core.CtxPhysicalActivity, "walking")
		_ = r.Set(fmt.Sprintf("runner%d", i), core.CtxPhysicalActivity, "running")
	}
	return r
}

// TestRegistryApplyItemNoAlloc: folding an item into the record of a known
// user allocates nothing, whether the value is the one the user holds or
// another the dictionary has.
func TestRegistryApplyItemNoAlloc(t *testing.T) {
	r := neighbours(8)
	items := [2]core.Item{
		{UserID: "alice", Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified, Classified: "walking"},
		{UserID: "alice", Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified, Classified: "running"},
	}
	r.ApplyItem(items[0])
	n := 0
	if avg := testing.AllocsPerRun(1000, func() {
		r.ApplyItem(items[n%2])
		n++
	}); avg != 0 {
		t.Fatalf("ApplyItem of a known user and value allocates %.1f objects, want 0", avg)
	}
}

// TestRegistryRecordSizes pins the sizes the context bytes gauge counts.
func TestRegistryRecordSizes(t *testing.T) {
	if got := len(core.ContextModalities()); got != ctxModalities {
		t.Fatalf("%d context modalities, a record holds %d", got, ctxModalities)
	}
	if s, l := unsafe.Sizeof(ctxSlot{}), unsafe.Sizeof(ctxLoc{}); s != 20 || l != 24 {
		t.Fatalf("ctxSlot is %d B, ctxLoc %d B; bytes() counts 20 and 24", s, l)
	}
}

// BenchmarkRegistryApplyItem is ApplyItem for a user the registry knows,
// with a value other users of its shard hold, and for a user it has not
// seen.
func BenchmarkRegistryApplyItem(b *testing.B) {
	item := core.Item{Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified}
	b.Run("known", func(b *testing.B) {
		r := neighbours(8)
		item.UserID = "alice"
		labels := [2]string{"walking", "running"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			item.Classified = labels[i%2]
			r.ApplyItem(item)
		}
	})
	b.Run("first-seen", func(b *testing.B) {
		ids := make([]string, b.N)
		for i := range ids {
			ids[i] = fmt.Sprintf("user%07d", i)
		}
		r := NewContextRegistry(8, nil)
		item.Classified = "walking"
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			item.UserID = ids[i]
			r.ApplyItem(item)
		}
	})
}

// TestRegistrySetRejectsUnknownModality: a value no filter can name is
// refused with an error, not stored for ever.
func TestRegistrySetRejectsUnknownModality(t *testing.T) {
	metrics := obs.NewRegistry()
	r := NewContextRegistry(2, metrics)
	err := r.Set("alice", "mood", "happy")
	if err == nil || !strings.Contains(err.Error(), `"mood"`) {
		t.Fatalf("Set with unknown modality: err = %v, want one naming it", err)
	}
	if got := r.SnapshotAll(); len(got) != 0 {
		t.Fatalf("rejected value was stored: %v", got)
	}
	if err := r.Set("alice", core.CtxPlace, "Paris"); err != nil {
		t.Fatalf("Set with a known modality: %v", err)
	}
	if err := r.Set("alice", core.CtxPlace, "Milan"); err != nil {
		t.Fatalf("Set overwriting: %v", err)
	}
	if users, entries := metrics.Sum("sensocial_context_users"), metrics.Sum("sensocial_context_entries"); users != 1 || entries != 1 {
		t.Fatalf("gauges read %d users, %d entries; want 1, 1", users, entries)
	}
}

// refRegistry is the nested-map registry the records replaced, kept as the
// reference the differential test compares against, with the map of
// remembered locations beside it.
type refRegistry struct {
	ctx map[string]map[string]string
	loc map[string]refLocation
}

type refLocation struct {
	pt   geo.Point
	city string
}

func (ref refRegistry) set(user, modality, value string) {
	if user == "" || !core.ValidContextModality(modality) {
		return
	}
	if ref.ctx[user] == nil {
		ref.ctx[user] = map[string]string{}
	}
	ref.ctx[user][modality] = value
}

func (ref refRegistry) applyItem(item core.Item) {
	if item.Granularity == core.GranularityClassified && item.Classified != "" {
		if mod, err := core.ContextForSensor(item.Modality); err == nil {
			ref.set(item.UserID, mod, item.Classified)
		}
	}
	for k, v := range item.Context {
		ref.set(item.UserID, k, v)
	}
}

func (ref refRegistry) snapshot(users []string) core.Context {
	out := core.Context{}
	for _, u := range users {
		for mod, v := range ref.ctx[u] {
			out[core.Key(u, mod)] = v
		}
	}
	return out
}

func (ref refRegistry) all() []string {
	users := make([]string, 0, len(ref.ctx))
	for u := range ref.ctx {
		users = append(users, u)
	}
	return users
}

// TestRegistryMatchesNestedMapReference drives the registry and the
// reference through the same seeded sequence of writes (Set, ApplyItem,
// RememberLocation) and compares every reader — in-place evaluation,
// lastPoint, LocationUnchanged, SnapshotUsers, SnapshotAll and the gauges —
// after every step. Each shard's dictionary holds four values, fewer than
// the distinct values written, and one value is longer than any the
// dictionary takes, so the overflow path and the freeing of values no user
// holds any more are in every run. A scraper reads the gauges and
// snapshots from another goroutine throughout, for the race detector.
func TestRegistryMatchesNestedMapReference(t *testing.T) {
	users := []string{"", "ann", "bob", "cyd", "dee", "eve", "fay", "gus"}
	modalities := append(core.ContextModalities(), "mood", "bob/place", "")
	sensorMods := []string{sensors.ModalityAccelerometer, sensors.ModalityMicrophone,
		sensors.ModalityLocation, sensors.ModalityWiFi, sensors.ModalityBluetooth, "barometer"}
	values := []string{"walking", "Walking", "still", "silent", "Paris", "Lyon", "08:30", "17:45",
		"3", "12.5", "", strings.Repeat("long ", valueMax/5+1)}
	for i := 0; i < 8; i++ {
		values = append(values, fmt.Sprintf("value-%d", i))
	}
	points := []geo.Point{{Lat: 48.8566, Lon: 2.3522}, {Lat: 45.764, Lon: 4.8357}, {}}
	operators := []core.Operator{core.OpEquals, core.OpNotEquals, core.OpContains,
		core.OpGT, core.OpGTE, core.OpLT, core.OpLTE, "bogus"}

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func(from []string) string { return from[rng.Intn(len(from))] }
		metrics := obs.NewRegistry()
		reg := newContextRegistry(3, metrics, 4)
		ref := refRegistry{ctx: map[string]map[string]string{}, loc: map[string]refLocation{}}
		var writes, skips uint64

		stop := make(chan struct{})
		scraped := make(chan struct{})
		go func() {
			defer close(scraped)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = metrics.Sum("sensocial_context_bytes") + metrics.Sum("sensocial_context_entries")
				_ = reg.SnapshotAll()
				_ = reg.SnapshotUsers(users)
			}
		}()

		for step := 0; step < 1500; step++ {
			switch rng.Intn(4) {
			case 0:
				user, mod, val := pick(users), pick(modalities), pick(values)
				err := reg.Set(user, mod, val)
				if rejected := user != "" && !core.ValidContextModality(mod); (err != nil) != rejected {
					t.Fatalf("seed %d step %d: Set(%q, %q) err = %v, rejected should be %v", seed, step, user, mod, err, rejected)
				}
				ref.set(user, mod, val)
			case 1:
				item := core.Item{UserID: pick(users), Modality: pick(sensorMods), Granularity: core.GranularityRaw}
				if rng.Intn(2) == 0 {
					item.Granularity, item.Classified = core.GranularityClassified, pick(values)
				}
				for n := rng.Intn(4); n > 0; n-- {
					if item.Context == nil {
						item.Context = core.Context{}
					}
					item.Context[pick(modalities)] = pick(values)
				}
				reg.ApplyItem(item)
				ref.applyItem(item)
			case 2:
				user, pt, city := pick(users), points[rng.Intn(len(points))], pick(values)
				reg.RememberLocation(user, pt, city)
				ref.loc[user] = refLocation{pt, city}
				writes++
			case 3:
				// A filter on one or two other users, compiled as at install.
				var f core.Filter
				for n := 1 + rng.Intn(4); n > 0; n-- {
					f.Conditions = append(f.Conditions, core.Condition{
						UserID: pick(users[:4]), Modality: pick(modalities),
						Operator: operators[rng.Intn(len(operators))], Value: pick(values),
					})
				}
				for _, g := range compileFilter(f) {
					want := true
					for _, c := range g.conds {
						want = want && c.Eval(ref.snapshot([]string{g.userID}))
					}
					if got := reg.evalUser(g.userID, g.conds); got != want {
						t.Fatalf("seed %d step %d: evalUser(%q, %+v) = %v, reference says %v (context %v)",
							seed, step, g.userID, g.conds, got, want, ref.ctx[g.userID])
					}
				}
			}

			user := pick(users)
			last, remembered := ref.loc[user]
			if pt, ok := reg.lastPoint(user); ok != remembered || pt != last.pt {
				t.Fatalf("seed %d step %d: lastPoint(%q) = %v, %v; reference %v, %v", seed, step, user, pt, ok, last.pt, remembered)
			}
			pt, city := points[rng.Intn(len(points))], pick(values)
			if rng.Intn(2) == 0 && remembered {
				pt, city = last.pt, last.city
			}
			same := remembered && last.pt == pt && last.city == city
			if same {
				skips++
			}
			if got := reg.LocationUnchanged(user, pt, city); got != same {
				t.Fatalf("seed %d step %d: LocationUnchanged(%q, %v, %q) = %v, reference %v (%v)", seed, step, user, pt, city, got, same, last)
			}

			some := []string{pick(users), pick(users), "nobody"}
			if got, want := reg.SnapshotUsers(some), ref.snapshot(some); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: SnapshotUsers(%q) = %v, reference %v", seed, step, some, got, want)
			}
			want := ref.snapshot(ref.all())
			if got := reg.SnapshotAll(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: SnapshotAll = %v, reference %v", seed, step, got, want)
			}
			if got := metrics.Sum("sensocial_context_users"); got != uint64(len(ref.ctx)) {
				t.Fatalf("seed %d step %d: sensocial_context_users = %d, reference holds %d", seed, step, got, len(ref.ctx))
			}
			if got := metrics.Sum("sensocial_context_entries"); got != uint64(len(want)) {
				t.Fatalf("seed %d step %d: sensocial_context_entries = %d, reference holds %d", seed, step, got, len(want))
			}
			if w, s := metrics.Sum("sensocial_context_location_writes_total"), metrics.Sum("sensocial_context_location_skips_total"); w != writes || s != skips {
				t.Fatalf("seed %d step %d: location writes, skips = %d, %d; reference %d, %d", seed, step, w, s, writes, skips)
			}
		}
		close(stop)
		<-scraped

		// Every ref the records and locations hold is counted in its
		// dictionary, and nothing else is: no entry outlives its last holder.
		for i := range reg.shards {
			sh := &reg.shards[i]
			counts := map[uint16]uint32{}
			for _, rec := range sh.slots {
				for _, r := range rec.vals {
					counts[r]++
				}
			}
			for _, loc := range sh.locs {
				counts[loc.city]++
			}
			for j, e := range sh.dict.ents {
				if e.refs != counts[uint16(j+1)] {
					t.Fatalf("seed %d shard %d: value %d counted %d, held %d times", seed, i, j+1, e.refs, counts[uint16(j+1)])
				}
			}
			if len(sh.over) != int(counts[refOverflow]) {
				t.Fatalf("seed %d shard %d: overflow holds %d values, fields refer to %d", seed, i, len(sh.over), counts[refOverflow])
			}
		}
	}
}
