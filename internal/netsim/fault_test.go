package netsim

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("all-verbs", `
# every verb once
@2m  latency device-* server 80ms 20ms
@1m  partition device-* | server
@3m  bandwidth device-0->server 16384
@4m  loss device-* server 0.25 50ms
@5m  churn device-*
@6m  storm 128
@7m  heal
`)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if len(s.Faults) != 7 {
		t.Fatalf("parsed %d faults, want 7", len(s.Faults))
	}
	// Stable-sorted by offset: the partition line comes first despite
	// appearing second in the file.
	if s.Faults[0].Kind != FaultPartition || s.Faults[0].At != time.Minute {
		t.Fatalf("first fault = %v @%v, want partition @1m", s.Faults[0].Kind, s.Faults[0].At)
	}
	if got := s.Horizon(); got != 7*time.Minute {
		t.Fatalf("Horizon = %v, want 7m", got)
	}
	lat := s.Faults[1]
	if lat.Kind != FaultLatency || !lat.Symmetric || lat.Latency != 80*time.Millisecond || lat.Jitter != 20*time.Millisecond {
		t.Fatalf("latency fault parsed wrong: %+v", lat)
	}
	bw := s.Faults[2]
	if bw.Kind != FaultBandwidth || bw.Symmetric || bw.BandwidthBps != 16384 {
		t.Fatalf("directional bandwidth fault parsed wrong: %+v", bw)
	}
	storm := s.Faults[5]
	if storm.Kind != FaultStorm || storm.Count != 128 {
		t.Fatalf("storm fault parsed wrong: %+v", storm)
	}

	for _, bad := range []string{
		"",                                  // no faults
		"latency a b 10ms",                  // missing @offset
		"@x latency a b 10ms",               // bad offset
		"@1m frobnicate a b",                // unknown verb
		"@1m partition a b",                 // partition without |
		"@1m loss a b 1.5",                  // loss out of range
		"@1m storm 100000",                  // storm too large
		"@1m latency a b notaduration",      // bad duration
		"@1m bandwidth a b -5",              // negative rate
		"@1m latency a b 10ms 5ms trailing", // excess args
	} {
		if _, err := ParseSchedule("bad", bad+"\n"); err == nil {
			t.Errorf("ParseSchedule accepted %q", bad)
		}
	}
}

func TestPartitionCutsDialsAndConns(t *testing.T) {
	n := newTestNetwork(t)
	startEcho(t, n, "server:1883")
	c, err := n.Dial("device-1", "server:1883")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	if cut := n.Partition([]string{"device-*"}, []string{"server"}); cut != 1 {
		t.Fatalf("Partition reset %d conns, want 1", cut)
	}
	if !n.IsPartitioned("device-1", "server") {
		t.Fatalf("IsPartitioned = false after partition")
	}
	// Established connections are reset, both directions.
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrConnReset) {
		t.Fatalf("Write on cut conn: %v, want ErrConnReset", err)
	}
	// New dials across the cut are refused.
	if _, err := n.Dial("device-2", "server:1883"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("Dial across cut: %v, want ErrPartitioned", err)
	}
	// Hosts outside the cut are untouched.
	side, err := n.Dial("observer", "server:1883")
	if err != nil {
		t.Fatalf("Dial outside cut: %v", err)
	}
	_ = side.Close()

	n.Heal()
	if n.IsPartitioned("device-1", "server") {
		t.Fatalf("IsPartitioned = true after Heal")
	}
	c2, err := n.Dial("device-3", "server:1883")
	if err != nil {
		t.Fatalf("Dial after Heal: %v", err)
	}
	_ = c2.Close()
}

func TestApplyLinkFaultReshapesLiveConns(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	n := NewNetwork(clock, 1)
	t.Cleanup(func() { _ = n.Close() })
	startEcho(t, n, "server:1883")
	c, err := n.Dial("device-1", "server:1883")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if !n.PathDelayFree("device-1", "server") {
		t.Fatalf("base path not delay-free")
	}

	lat := 500 * time.Millisecond
	if hit := n.ApplyLinkFault("device-1", "server", LinkFault{Latency: &lat}); hit != 1 {
		t.Fatalf("ApplyLinkFault reshaped %d conns, want 1", hit)
	}
	if n.PathDelayFree("device-1", "server") {
		t.Fatalf("path reported delay-free under latency fault")
	}

	// The write leaves immediately but must not arrive (echo included)
	// until virtual time crosses the injected latency.
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make(chan error, 1)
	buf := make([]byte, 4)
	go func() {
		_, err := io.ReadFull(c, buf)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("echo arrived with no virtual-time advance (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	// One direction of latency is not enough either: the echo pays it
	// both ways (the reverse path carries the injected fault only if
	// applied; here only device->server is shaped, so one advance past
	// the one-way latency suffices for the echo).
	clock.Advance(600 * time.Millisecond)
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("ReadFull: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("echo still pending after advancing past the latency fault")
	}
	if string(buf) != "ping" {
		t.Fatalf("echoed %q, want %q", buf, "ping")
	}

	n.Heal()
	if !n.PathDelayFree("device-1", "server") {
		t.Fatalf("path not delay-free after Heal")
	}
}

// TestSharedPipeBandwidth is the regression test for the shared-queue
// bandwidth model: two back-to-back writes must serialize on the pipe, so
// the second one's delivery pays both transmission times, even though
// each write returned before the other transmitted.
func TestSharedPipeBandwidth(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	n := NewNetwork(clock, 1)
	t.Cleanup(func() { _ = n.Close() })
	n.SetLink("device-1", "server", Link{BandwidthBps: 1000}) // 100 B = 100 ms
	n.SetLink("server", "device-1", Link{})                   // echoes come back instantly
	startEcho(t, n, "server:1883")
	c, err := n.Dial("device-1", "server:1883")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	chunk := make([]byte, 100)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	// Both writes return immediately; under the old per-write model both
	// would see an empty pipe and stamp delivery at +100 ms.
	if _, err := c.Write(chunk); err != nil {
		t.Fatalf("Write 1: %v", err)
	}
	if _, err := c.Write(chunk); err != nil {
		t.Fatalf("Write 2: %v", err)
	}

	read := make(chan int, 4)
	go func() {
		buf := make([]byte, 100)
		for {
			nr, err := io.ReadFull(c, buf)
			if err != nil {
				return
			}
			read <- nr
		}
	}()
	waitBytes := func(want int, within time.Duration) int {
		total := 0
		deadline := time.After(within)
		for total < want {
			select {
			case nr := <-read:
				total += nr
			case <-deadline:
				return total
			}
		}
		return total
	}

	// After 150 ms only the first chunk has cleared the shared pipe
	// (plus its instant echo: the reverse path is unshaped).
	clock.Advance(150 * time.Millisecond)
	if got := waitBytes(100, 2*time.Second); got != 100 {
		t.Fatalf("after 150ms: echoed %d bytes, want 100", got)
	}
	select {
	case nr := <-read:
		t.Fatalf("second chunk (%d bytes) arrived at 150ms; shared pipe not serialized", nr)
	case <-time.After(50 * time.Millisecond):
	}
	// The second chunk queued behind the first: delivery at 200 ms.
	clock.Advance(60 * time.Millisecond)
	if got := waitBytes(100, 2*time.Second); got != 100 {
		t.Fatalf("after 210ms: echoed %d more bytes, want 100", got)
	}
}

func TestResetConnsChurn(t *testing.T) {
	n := newTestNetwork(t)
	startEcho(t, n, "server:1883")
	var conns []interface {
		Write([]byte) (int, error)
	}
	for _, host := range []string{"device-1", "device-2", "other-1"} {
		c, err := n.Dial(host, "server:1883")
		if err != nil {
			t.Fatalf("Dial(%s): %v", host, err)
		}
		defer c.Close()
		conns = append(conns, c)
	}
	if reset := n.ResetConns("device-*"); reset != 2 {
		t.Fatalf("ResetConns reset %d, want 2", reset)
	}
	for i, c := range conns[:2] {
		if _, err := c.Write([]byte("x")); !errors.Is(err, ErrConnReset) {
			t.Fatalf("conn %d write after churn: %v, want ErrConnReset", i, err)
		}
	}
	if _, err := conns[2].Write([]byte("x")); err != nil {
		t.Fatalf("unmatched conn reset by churn: %v", err)
	}
}

// TestFaultEngineRequiresEventScheduler: faults are events on the
// deployment clock, so a clock that cannot schedule them is refused.
func TestFaultEngineRequiresEventScheduler(t *testing.T) {
	sched, err := ParseSchedule("engine", "@1m heal\n")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	clock := vclock.NewReal()
	n := NewNetwork(clock, 1)
	defer n.Close()
	eng, err := NewFaultEngine(n, clock, sched, EngineOptions{})
	if err != nil {
		t.Fatalf("NewFaultEngine: %v", err)
	}
	if err := eng.Start(); err == nil || !strings.Contains(err.Error(), "does not schedule events") {
		t.Fatalf("Start on a real clock = %v, want a refusal", err)
	}
}

func TestFaultEngineRunsSchedule(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	n := NewNetwork(clock, 1)
	reg := obs.NewRegistry()
	n.Instrument(reg)
	t.Cleanup(func() { _ = n.Close() })
	startEcho(t, n, "server:1883")
	c, err := n.Dial("device-1", "server:1883")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	sched, err := ParseSchedule("engine", `
@1m partition device-* | server
@2m heal
@3m latency device-1 server 10ms
@4m churn device-*
@5m storm 3
`)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	storms := 0
	eng, err := NewFaultEngine(n, clock, sched, EngineOptions{
		OnStorm: func(count int) { storms += count },
	})
	if err != nil {
		t.Fatalf("NewFaultEngine: %v", err)
	}
	if err := eng.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer eng.Stop()

	clock.Advance(90 * time.Second)
	if !n.IsPartitioned("device-1", "server") {
		t.Fatalf("not partitioned after @1m fault")
	}
	clock.Advance(60 * time.Second) // now 2m30s
	if n.IsPartitioned("device-1", "server") {
		t.Fatalf("still partitioned after @2m heal")
	}
	clock.Advance(3 * time.Minute) // past the whole schedule
	eng.Stop()

	// The tallies are the fabric's registry series, by kind and by cause.
	const faults, resets = "sensocial_netsim_faults_total", "sensocial_netsim_conn_resets_total"
	if got := reg.Sum(faults); got != 5 {
		t.Fatalf("applied %d faults, want 5", got)
	}
	for _, kind := range []string{"partition", "heal", "latency", "churn", "storm"} {
		if got := reg.Sum(faults, kind); got != 1 {
			t.Fatalf("%s{kind=%q} = %d, want 1", faults, kind, got)
		}
	}
	// The partition cut the one connection; nothing was left for the churn.
	if cut, churned := reg.Sum(resets, "partition"), reg.Sum(resets, "churn"); cut != 1 || churned != 0 {
		t.Fatalf("resets: partition %d, churn %d; want 1, 0", cut, churned)
	}
	if storms != 3 {
		t.Fatalf("storm hook saw %d clients, want 3", storms)
	}
}
