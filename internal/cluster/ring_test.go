package cluster

import "testing"

func TestRingLookupDistinctAndStable(t *testing.T) {
	r := newRing(64)
	for id := 0; id < 4; id++ {
		r.add(id)
	}
	for key := uint64(0); key < 200; key++ {
		got := r.lookup(key, 3, nil)
		if len(got) != 3 {
			t.Fatalf("key %d: %d owners, want 3", key, len(got))
		}
		seen := map[int]bool{}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("key %d: duplicate owner %d in %v", key, id, got)
			}
			seen[id] = true
		}
		again := r.lookup(key, 3, nil)
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("key %d: lookup not stable: %v vs %v", key, got, again)
			}
		}
	}
}

func TestRingLookupCapsAtShardCount(t *testing.T) {
	r := newRing(16)
	r.add(0)
	r.add(1)
	if got := r.lookup(42, 5, nil); len(got) != 2 {
		t.Fatalf("lookup over 2 shards returned %v", got)
	}
	if got := r.lookup(42, 0, nil); got != nil {
		t.Fatalf("n=0 lookup returned %v", got)
	}
}

func TestRingBalancesKeys(t *testing.T) {
	r := newRing(128)
	const shards = 4
	for id := 0; id < shards; id++ {
		r.add(id)
	}
	counts := make([]int, shards)
	const keys = 4000
	for key := uint64(0); key < keys; key++ {
		counts[r.lookup(key, 1, nil)[0]]++
	}
	for id, n := range counts {
		// With 128 vnodes the spread stays well inside 2x of fair share.
		if n < keys/shards/2 || n > keys/shards*2 {
			t.Fatalf("shard %d owns %d of %d keys: badly unbalanced %v", id, n, keys, counts)
		}
	}
}

func TestRingRemoveMovesOnlyVictimKeys(t *testing.T) {
	r := newRing(64)
	for id := 0; id < 4; id++ {
		r.add(id)
	}
	before := make(map[uint64]int)
	for key := uint64(0); key < 1000; key++ {
		before[key] = r.lookup(key, 1, nil)[0]
	}
	r.remove(2)
	moved := 0
	for key := uint64(0); key < 1000; key++ {
		after := r.lookup(key, 1, nil)[0]
		if after == 2 {
			t.Fatalf("key %d still maps to removed shard", key)
		}
		if before[key] != 2 && after != before[key] {
			t.Fatalf("key %d moved from surviving shard %d to %d", key, before[key], after)
		}
		if before[key] == 2 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("shard 2 owned no keys before removal")
	}
}
