package sim

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/sensors"
)

// StationaryProfile builds a profile for a user parked at a named place in
// the simulation's place database.
func StationaryProfile(places *geo.PlaceDB, city string, opts ...sensors.ProfileOption) (*sensors.Profile, error) {
	p, ok := places.Lookup(city)
	if !ok {
		return nil, fmt.Errorf("sim: unknown city %q", city)
	}
	return sensors.NewProfile(geo.Stationary{At: p.Region.Center}, opts...)
}

// TravelProfile builds a profile for a user travelling between two named
// places at the given speed after an initial dwell.
func TravelProfile(places *geo.PlaceDB, from, to string, speedMPS float64, departAfter time.Duration, opts ...sensors.ProfileOption) (*sensors.Profile, error) {
	src, ok := places.Lookup(from)
	if !ok {
		return nil, fmt.Errorf("sim: unknown city %q", from)
	}
	dst, ok := places.Lookup(to)
	if !ok {
		return nil, fmt.Errorf("sim: unknown city %q", to)
	}
	// Model the dwell as a zero-distance first leg with Dwell time.
	route, err := geo.NewRoute(src.Region.Center,
		geo.Waypoint{To: src.Region.Center, SpeedMPS: 1, Dwell: departAfter},
		geo.Waypoint{To: dst.Region.Center, SpeedMPS: speedMPS},
	)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return sensors.NewProfile(route, opts...)
}
