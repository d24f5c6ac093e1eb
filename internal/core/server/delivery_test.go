package server_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/server"
	"repro/internal/docstore"
	"repro/internal/sensors"
)

// TestPersistedRawReadsBack persists items through a DeliveryHub and reads
// each back from the items collection: the stored raw payload must be the
// uploaded bytes, whether the store bit packs its integer arrays (an
// accelerometer window) or keeps it as text (a location fix, a microphone
// RMS window, arrays that are not canonical integers).
func TestPersistedRawReadsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	window := sensors.AccelReading{RateHz: 50, Samples: make([]sensors.AccelSample, 400)}
	for i := range window.Samples {
		window.Samples[i] = sensors.AccelSample{X: rng.NormFloat64() * 3, Y: rng.NormFloat64() * 3, Z: 9.81 + rng.NormFloat64()}
	}
	rms := sensors.MicReading{FrameRateHz: 10, RMS: make([]float64, 50)}
	for i := range rms.RMS {
		rms.RMS[i] = rng.Float64()
	}
	var raws [][]byte
	for _, v := range []any{window, sensors.LocationReading{Lat: 48.85661, Lon: 2.35222, AccuracyM: 12, FixSeconds: 1.5}, rms} {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	raws = append(raws,
		[]byte(`{"x":[-0,1,2,3,4,5,6,7],"y":[01,1,2,3,4,5,6,7],"z":[+1,1,2,3,4,5,6,7]}`),
		[]byte(`{"x":[1.0,1,2,3,4,5,6,7],"y":[1, 2, 3, 4, 5, 6, 7, 8],"z":[1,2,3,4,5,6,7]}`),
		[]byte(`{"x":[[1,2,3,4,5,6,7,8],[1,2]],"y":[9223372036854775807,-9223372036854775808,0,0,0,0,0,0]}`),
	)

	store := docstore.NewStore()
	d := server.NewDeliveryHub(store, core.NewHub(), true, nil, nil, nil, nil)
	for i, raw := range raws {
		d.Deliver(core.Item{
			StreamID: fmt.Sprintf("s%d", i), DeviceID: "d", UserID: "u", Modality: "m",
			Granularity: core.GranularityRaw, Time: time.UnixMilli(1_700_000_000_000), Raw: raw,
		}, nil, 0)
	}
	for i, raw := range raws {
		docs, err := store.Collection("items").Find(docstore.Doc{"stream": fmt.Sprintf("s%d", i)}, docstore.FindOpts{})
		if err != nil || len(docs) != 1 {
			t.Fatalf("Find(s%d) = %d documents, %v", i, len(docs), err)
		}
		if got := docs[0]["raw"]; got != string(raw) {
			t.Errorf("raw of s%d reads back as\n%v\nwant\n%s", i, got, raw)
		}
	}
}
