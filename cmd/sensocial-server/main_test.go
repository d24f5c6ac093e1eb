package main

import (
	"fmt"
	"strings"
	"testing"
)

func TestMembershipRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name, id, peers, wantErr string
	}{
		{"entry without address", "shard0", "shard1=10.0.0.2:1883,shard2", "bad -shard-peers entry"},
		{"entry without id", "shard0", "=10.0.0.2:1883", "bad -shard-peers entry"},
		{"blank entry", "shard0", "shard1=10.0.0.2:1883, ,shard2=10.0.0.3:1883", "bad -shard-peers entry"},
		{"peers without -shard-id", "", "shard1=10.0.0.2:1883", "-shard-peers needs -shard-id"},
		{"own id among the peers", "shard0", "shard0=10.0.0.1:1883,shard1=10.0.0.2:1883", "duplicate shard ID"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ring, peers, err := membership(tc.id, tc.peers)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("membership(%q, %q) = ring %v, %d peers, err %v; want an error containing %q",
					tc.id, tc.peers, ring, len(peers), err, tc.wantErr)
			}
		})
	}
}

func TestMembershipUnsharded(t *testing.T) {
	ring, peers, err := membership("", "")
	if ring != nil || peers != nil || err != nil {
		t.Fatalf("membership of an unsharded server = %v, %v, %v; want nothing", ring, peers, err)
	}
	ring, peers, err = membership("solo", "")
	if err != nil || len(peers) != 0 || len(ring.Shards()) != 1 {
		t.Fatalf("a ring of one: ring %v, %d peers, err %v", ring, len(peers), err)
	}
}

// TestMembershipIsOrderIndependent: every process of a cluster is started
// with the same members but a different one as -shard-id and the rest in any
// order; they must still agree on who owns each user.
func TestMembershipIsOrderIndependent(t *testing.T) {
	r0, p0, err := membership("shard0", "shard1=h1:1883,shard2=h2:1883")
	if err != nil {
		t.Fatal(err)
	}
	r2, p2, err := membership("shard2", " shard1=h1:1883, shard0=h0:1883")
	if err != nil {
		t.Fatal(err)
	}
	if len(p0) != 2 || len(p2) != 2 || p2[0].ID != "shard1" || p2[1].ID != "shard0" {
		t.Fatalf("peers %v and %v, want the two other members each, in flag order", p0, p2)
	}
	if fmt.Sprint(r0.Shards()) != "[shard0 shard1 shard2]" || fmt.Sprint(r2.Shards()) != fmt.Sprint(r0.Shards()) {
		t.Fatalf("ring membership %v vs %v, want both sorted", r0.Shards(), r2.Shards())
	}
	for i := 0; i < 1000; i++ {
		user := fmt.Sprintf("user%d", i)
		if a, b := r0.Owner(user), r2.Owner(user); a != b {
			t.Fatalf("processes disagree on the owner of %s: %s vs %s", user, a, b)
		}
	}
}
