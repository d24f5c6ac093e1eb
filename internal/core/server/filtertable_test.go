package server

import (
	"strconv"
	"testing"

	"repro/internal/core"
)

// TestFilterTableSetBytesDoNotScale: installing a stream's filter copies
// the path to it in the table's persistent map, not the table, so the
// bytes a Set and the Delete that undoes it allocate at 10 000 installed
// filters stay within 3× of those at 100. When each write copied the map
// they grew with the stream count. testing.Benchmark's byte count is
// exact; wall time would not be. The bytes depend on how deep the new key's
// path runs, which the map's random hash seed decides, so the loop cycles
// through 64 new keys: with one key, one run in about forty found it alone
// in a root slot of the 100-filter table and read under a third of the
// 10 000-filter cost.
func TestFilterTableSetBytesDoNotScale(t *testing.T) {
	f := core.Filter{Conditions: []core.Condition{
		{Modality: core.CtxPlace, Operator: core.OpEquals, Value: "Paris", UserID: "bob"},
	}}
	fresh := make([]string, 64)
	for i := range fresh {
		fresh[i] = "new" + strconv.Itoa(i)
	}
	perSet := func(n int) int64 {
		tab := NewFilterTable()
		for i := 0; i < n; i++ {
			tab.Set("s"+strconv.Itoa(i), f)
		}
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := fresh[i%len(fresh)]
				tab.Set(k, f)
				tab.Delete(k)
			}
		}).AllocedBytesPerOp()
	}
	small, large := perSet(100), perSet(10_000)
	if small <= 0 || large > 3*small {
		t.Fatalf("Set+Delete allocates %d B at 10 000 filters and %d B at 100, want at most 3×", large, small)
	}
}

// BenchmarkStreamCreate measures one CreateRemoteStream — the stream
// registry upsert, the filter install, the XML encode and the config
// trigger — on a server already holding n conditioned streams. Each new
// stream is destroyed again off the clock, so n holds for every op.
func BenchmarkStreamCreate(b *testing.B) {
	cfg := func(id string) core.StreamConfig {
		return core.StreamConfig{
			ID: id, DeviceID: "dev-" + id, UserID: "alice",
			Modality: "wifi", Granularity: core.GranularityRaw, Kind: core.KindSocialEvent,
			Filter: core.Filter{Conditions: []core.Condition{
				{Modality: core.CtxPlace, Operator: core.OpEquals, Value: "Paris", UserID: "bob"},
			}},
		}
	}
	for _, n := range []int{1_000, 10_000} {
		b.Run("streams="+strconv.Itoa(n), func(b *testing.B) {
			m := fastPathManager(b)
			for i := 0; i < n; i++ {
				if err := m.CreateRemoteStream(cfg("s" + strconv.Itoa(i))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.CreateRemoteStream(cfg("new")); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := m.DestroyRemoteStream("new"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
