package sensing

import (
	"testing"
	"time"
)

var cadenceEpoch = time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC)

func TestCadenceAbsoluteSchedule(t *testing.T) {
	cad := NewCadence(cadenceEpoch, time.Minute)
	for k := 1; k <= 5; k++ {
		want := cadenceEpoch.Add(time.Duration(k) * time.Minute)
		if !cad.Next.Equal(want) {
			t.Fatalf("cycle %d due at %v, want %v", k, cad.Next, want)
		}
		cad.Tick(1)
	}
}

func TestCadenceDutyCredit(t *testing.T) {
	cad := NewCadence(cadenceEpoch, time.Minute)
	ran := 0
	for i := 0; i < 1000; i++ {
		if cad.Tick(0.5) {
			ran++
		}
	}
	if ran != 500 {
		t.Fatalf("duty 0.5 ran %d of 1000 cycles, want exactly 500", ran)
	}
	// Full duty runs every cycle.
	cad = NewCadence(cadenceEpoch, time.Minute)
	for i := 0; i < 10; i++ {
		if !cad.Tick(1) {
			t.Fatalf("duty 1 skipped cycle %d", i)
		}
	}
}

func TestCadenceVaryingDutyNoDrift(t *testing.T) {
	// Tick takes the duty per cycle, so it may vary; the credit
	// accumulator must run ~sum(duty) cycles without long-run drift.
	cad := NewCadence(cadenceEpoch, time.Minute)
	ran, sum := 0, 0.0
	duties := []float64{0.25, 0.75, 0.5, 1.0}
	for i := 0; i < 4000; i++ {
		d := duties[i%len(duties)]
		sum += d
		if cad.Tick(d) {
			ran++
		}
	}
	if diff := float64(ran) - sum; diff > 1 || diff < -1 {
		t.Fatalf("varying duty ran %d cycles, want within 1 of %v", ran, sum)
	}
}
