package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func appendAll(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func recordsAsStrings(rec *Recovery) []string {
	out := make([]string, len(rec.Records))
	for i, r := range rec.Records {
		out[i] = string(r)
	}
	return out
}

func TestAppendSyncRecover(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rec.LastLSN != 0 || len(rec.Records) != 0 || rec.Snapshot != nil {
		t.Fatalf("fresh dir recovery not empty: %+v", rec)
	}
	appendAll(t, l, "a", "bb", "ccc")
	if got := l.LSN(); got != 3 {
		t.Fatalf("LSN = %d, want 3", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	want := []string{"a", "bb", "ccc"}
	got := recordsAsStrings(rec)
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	}
	if rec.LastLSN != 3 || rec.TruncatedTail {
		t.Fatalf("recovery = %+v, want LastLSN 3 clean", rec)
	}
}

func TestCloseFlushesWithoutSync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// No Sync: Close itself must make the appends durable.
	if err := l.Append([]byte("only")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(rec.Records) != 1 || string(rec.Records[0]) != "only" {
		t.Fatalf("replayed %v, want [only]", recordsAsStrings(rec))
	}
}

func TestCrashDropsUnsynced(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, "durable")
	// Appended but never synced: a crash may lose it (here the syncer has
	// no chance to run because we crash immediately after the append
	// returns; either outcome is within contract, but LastLSN must cover a
	// prefix).
	if err := l.Append([]byte("maybe-lost")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	l.Crash()
	if err := l.Append([]byte("after")); err != ErrClosed {
		t.Fatalf("Append after Crash = %v, want ErrClosed", err)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := recordsAsStrings(rec)
	if len(got) == 0 || got[0] != "durable" {
		t.Fatalf("synced record lost: replayed %v", got)
	}
	if len(got) > 2 {
		t.Fatalf("replayed more than appended: %v", got)
	}
	if rec.LastLSN != uint64(len(got)) {
		t.Fatalf("LastLSN %d does not match %d replayed records", rec.LastLSN, len(got))
	}
}

func TestSegmentRotationAndNaming(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{segmentBytes: 64})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 20; i++ {
		appendAll(t, l, fmt.Sprintf("record-%02d", i))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listFiles(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatalf("listFiles: %v", err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation to create multiple segments, got %v", segs)
	}
	if segs[0] != 1 {
		t.Fatalf("first segment named %d, want 1", segs[0])
	}

	_, rec, err := Open(dir, Options{segmentBytes: 64})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec.LastLSN != 20 || len(rec.Records) != 20 {
		t.Fatalf("recovery = LastLSN %d / %d records, want 20/20", rec.LastLSN, len(rec.Records))
	}
	for i, r := range rec.Records {
		if want := fmt.Sprintf("record-%02d", i); string(r) != want {
			t.Fatalf("record %d = %q, want %q", i, r, want)
		}
	}
}

func TestCheckpointSnapshotAndRetention(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{segmentBytes: 32})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	state := ""
	for round := 0; round < 4; round++ {
		for i := 0; i < 4; i++ {
			p := fmt.Sprintf("r%d-%d;", round, i)
			state += p
			appendAll(t, l, p)
		}
		snap := state
		if err := l.Checkpoint(func(w io.Writer) error {
			_, err := io.WriteString(w, snap)
			return err
		}); err != nil {
			t.Fatalf("Checkpoint round %d: %v", round, err)
		}
	}
	snaps, _ := listFiles(dir, snapPrefix, snapSuffix)
	if len(snaps) != 2 {
		t.Fatalf("retained %d snapshots, want 2: %v", len(snaps), snaps)
	}
	segs, _ := listFiles(dir, segPrefix, segSuffix)
	// Segments fully covered by the oldest retained snapshot must be gone.
	if len(segs) > 0 && segs[0] < snaps[0] {
		// The first live segment may contain records ≤ snaps[0] only if the
		// next one starts after snaps[0]+1.
		if len(segs) > 1 && segs[1] <= snaps[0]+1 {
			t.Fatalf("segment %d should have been retired (snapshots %v, segments %v)", segs[0], snaps, segs)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec, err := Open(dir, Options{segmentBytes: 32})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rebuilt := string(rec.Snapshot)
	for _, r := range rec.Records {
		rebuilt += string(r)
	}
	if rebuilt != state {
		t.Fatalf("snapshot+tail = %q, want %q", rebuilt, state)
	}
	if rec.LastLSN != 16 {
		t.Fatalf("LastLSN = %d, want 16", rec.LastLSN)
	}
}

func TestAppendsAfterCheckpointReplayOnTopOfSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, "one", "two")
	if err := l.Checkpoint(func(w io.Writer) error {
		_, err := io.WriteString(w, "SNAP:one,two")
		return err
	}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	appendAll(t, l, "three")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if string(rec.Snapshot) != "SNAP:one,two" || rec.SnapshotLSN != 2 {
		t.Fatalf("snapshot = %q @ %d, want SNAP:one,two @ 2", rec.Snapshot, rec.SnapshotLSN)
	}
	if len(rec.Records) != 1 || string(rec.Records[0]) != "three" {
		t.Fatalf("tail = %v, want [three]", recordsAsStrings(rec))
	}
	if rec.LastLSN != 3 {
		t.Fatalf("LastLSN = %d, want 3", rec.LastLSN)
	}
}

func TestTornTailTruncatedToLastCompleteRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		chop func(raw []byte) []byte
	}{
		{"truncated-mid-payload", func(raw []byte) []byte { return raw[:len(raw)-1] }},
		{"truncated-mid-header", func(raw []byte) []byte { return raw[:len(raw)-10] }},
		{"corrupt-last-payload", func(raw []byte) []byte {
			raw[len(raw)-1] ^= 0xff
			return raw
		}},
		{"garbage-length-prefix", func(raw []byte) []byte {
			return append(raw, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x')
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			appendAll(t, l, "keep-1", "keep-2", "victim")
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			path := filepath.Join(dir, segmentName(1))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read segment: %v", err)
			}
			if err := os.WriteFile(path, tc.chop(raw), 0o644); err != nil {
				t.Fatalf("rewrite segment: %v", err)
			}

			l2, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen over torn tail: %v", err)
			}
			if !rec.TruncatedTail {
				t.Fatalf("TruncatedTail not reported: %+v", rec)
			}
			got := recordsAsStrings(rec)
			if len(got) < 2 || got[0] != "keep-1" || got[1] != "keep-2" {
				t.Fatalf("intact prefix lost: %v", got)
			}
			// New appends after a torn-tail recovery must round-trip.
			appendAll(t, l2, "fresh")
			if err := l2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			_, rec3, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("third open: %v", err)
			}
			got3 := recordsAsStrings(rec3)
			if len(got3) == 0 || got3[len(got3)-1] != "fresh" {
				t.Fatalf("post-recovery append lost: %v", got3)
			}
			if rec3.TruncatedTail {
				t.Fatalf("second recovery should be clean, got %+v", rec3)
			}
		})
	}
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, "a")
	if err := l.Checkpoint(func(w io.Writer) error {
		_, err := io.WriteString(w, "snap-old")
		return err
	}); err != nil {
		t.Fatalf("Checkpoint 1: %v", err)
	}
	appendAll(t, l, "b")
	if err := l.Checkpoint(func(w io.Writer) error {
		_, err := io.WriteString(w, "snap-new")
		return err
	}); err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	appendAll(t, l, "c")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Corrupt the newest snapshot's payload byte.
	newest := filepath.Join(dir, snapshotName(2))
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatalf("rewrite snapshot: %v", err)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if string(rec.Snapshot) != "snap-old" || rec.SnapshotLSN != 1 {
		t.Fatalf("fallback snapshot = %q @ %d, want snap-old @ 1", rec.Snapshot, rec.SnapshotLSN)
	}
	if rec.SkippedSnapshots != 1 {
		t.Fatalf("SkippedSnapshots = %d, want 1", rec.SkippedSnapshots)
	}
	// Replay must cover everything after LSN 1, including the records the
	// dead snapshot used to cover.
	got := recordsAsStrings(rec)
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("tail = %v, want [b c]", got)
	}
}

func TestTruncatedSnapshotHeaderFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, "x")
	if err := l.Checkpoint(func(w io.Writer) error {
		_, err := io.WriteString(w, "good")
		return err
	}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Chop the snapshot inside its header, simulating a torn write that
	// somehow survived the tmp+rename protocol (e.g. media error).
	path := filepath.Join(dir, snapshotName(1))
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:10], 0o644); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec.Snapshot != nil || rec.SkippedSnapshots != 1 {
		t.Fatalf("expected snapshot skipped, got %+v", rec)
	}
	if len(rec.Records) != 1 || string(rec.Records[0]) != "x" {
		t.Fatalf("tail = %v, want [x]", recordsAsStrings(rec))
	}
}

func TestConcurrentAppendersGroupCommit(t *testing.T) {
	dir := t.TempDir()
	m := NewMetrics(nil)
	l, _, err := Open(dir, Options{Metrics: m})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const (
		writers = 8
		each    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%04d", w, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got, want := m.records.Value(), uint64(writers*each); got != want {
		t.Fatalf("records counter = %d, want %d", got, want)
	}
	if f := m.fsyncs.Value(); f == 0 || f > uint64(writers*each) {
		t.Fatalf("fsyncs = %d, want within (0, %d]", f, writers*each)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rec.Records) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(rec.Records), writers*each)
	}
	// Per-writer order must hold even though writers interleave.
	next := make(map[byte]int)
	for _, r := range rec.Records {
		var w byte
		var i int
		if _, err := fmt.Sscanf(string(r), "w%c-%04d", &w, &i); err != nil {
			t.Fatalf("bad record %q: %v", r, err)
		}
		if i != next[w] {
			t.Fatalf("writer %c out of order: got %d, want %d", w, i, next[w])
		}
		next[w]++
	}
}

func TestSyncSurfacesWriteErrors(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, "ok")
	// Remove the directory out from under the log and force a rotation so
	// the next batch cannot open its segment.
	l.ioMu.Lock()
	_ = l.seg.Close()
	l.seg = nil
	l.segN = 1 << 30
	l.ioMu.Unlock()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatalf("RemoveAll: %v", err)
	}
	if err := l.Append([]byte("doomed")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync after losing the directory should fail")
	}
	if err := l.Append([]byte("more")); err == nil {
		t.Fatal("Append after sticky error should fail")
	}
	_ = l.Close()
}

func TestSnapshotRoundTripHelpers(t *testing.T) {
	dir := t.TempDir()
	blob := bytes.Repeat([]byte{0xab, 0xcd}, 1000)
	if err := writeSnapshotFile(dir, 42, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	}); err != nil {
		t.Fatalf("writeSnapshotFile: %v", err)
	}
	got, err := readSnapshotFile(dir, 42)
	if err != nil {
		t.Fatalf("readSnapshotFile: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("snapshot blob mismatch")
	}
	if _, err := readSnapshotFile(dir, 43); err == nil {
		t.Fatal("reading a missing snapshot should fail")
	}
}
