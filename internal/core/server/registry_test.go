package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sensors"
)

// retainedPerUser builds a registry, lets fill populate it for n users and
// returns the heap bytes the registry retains per user, measured between
// two forced collections. The user ids exist before the first measurement,
// so only what the registry itself allocates is counted.
func retainedPerUser(n int, fill func(r *ContextRegistry, user string)) float64 {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("user%05d", i)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	r := NewContextRegistry(8, nil)
	for _, id := range ids {
		fill(r, id)
	}
	after := heap()
	runtime.KeepAlive(r)
	runtime.KeepAlive(ids)
	return (float64(after) - float64(before)) / float64(n)
}

// TestRegistryRetainedBytesPerUser pins what one idle user costs the
// server (ROADMAP item 3): sim_fleet's shape, 20 000 users holding one
// context value each, must stay under 128 B per user. A map per user
// (the layout this record replaced) read about 370 B here.
func TestRegistryRetainedBytesPerUser(t *testing.T) {
	const users = 20000
	one := retainedPerUser(users, func(r *ContextRegistry, u string) {
		_ = r.Set(u, core.CtxPhysicalActivity, "walking")
	})
	t.Logf("one value: %.0f B/user", one)
	if one > 128 {
		t.Fatalf("registry retains %.0f B per user holding one value, want <= 128", one)
	}
	// The uplink_* shape: three values and a remembered location.
	full := retainedPerUser(users, func(r *ContextRegistry, u string) {
		_ = r.Set(u, core.CtxPhysicalActivity, "walking")
		_ = r.Set(u, core.CtxAudioEnvironment, "silent")
		_ = r.Set(u, core.CtxPlace, "Paris")
		r.RememberLocation(u, geo.Point{Lat: 48.8566, Lon: 2.3522}, "Paris")
	})
	t.Logf("three values and a location: %.0f B/user", full)
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
// reference the differential test compares against.
type refRegistry map[string]map[string]string

func (ref refRegistry) set(user, modality, value string) {
	if user == "" || !core.ValidContextModality(modality) {
		return
	}
	if ref[user] == nil {
		ref[user] = map[string]string{}
	}
	ref[user][modality] = value
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
		for mod, v := range ref[u] {
			out[core.Key(u, mod)] = v
		}
	}
	return out
}

func (ref refRegistry) all() []string {
	users := make([]string, 0, len(ref))
	for u := range ref {
		users = append(users, u)
	}
	return users
}

// TestRegistryMatchesNestedMapReference drives the registry and the
// reference through the same seeded sequence of writes and compares every
// reader — in-place evaluation, SnapshotUsers, SnapshotAll and the two
// gauges — after every step.
func TestRegistryMatchesNestedMapReference(t *testing.T) {
	users := []string{"", "ann", "bob", "cyd", "dee", "eve", "fay", "gus"}
	modalities := append(core.ContextModalities(), "mood", "bob/place", "")
	sensorMods := []string{sensors.ModalityAccelerometer, sensors.ModalityMicrophone,
		sensors.ModalityLocation, sensors.ModalityWiFi, sensors.ModalityBluetooth, "barometer"}
	values := []string{"walking", "Walking", "still", "silent", "Paris", "08:30", "17:45", "3", "12.5", ""}
	operators := []core.Operator{core.OpEquals, core.OpNotEquals, core.OpContains,
		core.OpGT, core.OpGTE, core.OpLT, core.OpLTE, "bogus"}

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func(from []string) string { return from[rng.Intn(len(from))] }
		metrics := obs.NewRegistry()
		reg, ref := NewContextRegistry(3, metrics), refRegistry{}

		for step := 0; step < 1500; step++ {
			switch rng.Intn(3) {
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
							seed, step, g.userID, g.conds, got, want, ref[g.userID])
					}
				}
			}

			some := []string{pick(users), pick(users), "nobody"}
			if got, want := reg.SnapshotUsers(some), ref.snapshot(some); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: SnapshotUsers(%q) = %v, reference %v", seed, step, some, got, want)
			}
			want := ref.snapshot(ref.all())
			if got := reg.SnapshotAll(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: SnapshotAll = %v, reference %v", seed, step, got, want)
			}
			if got := metrics.Sum("sensocial_context_users"); got != uint64(len(ref)) {
				t.Fatalf("seed %d step %d: sensocial_context_users = %d, reference holds %d", seed, step, got, len(ref))
			}
			if got := metrics.Sum("sensocial_context_entries"); got != uint64(len(want)) {
				t.Fatalf("seed %d step %d: sensocial_context_entries = %d, reference holds %d", seed, step, got, len(want))
			}
		}
	}
}
