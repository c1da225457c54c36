package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parabit/internal/plan"
	"parabit/internal/ssd"
	"parabit/internal/telemetry"
)

// TestClusterShardKillRestart proves the restart-from-disk path: with
// one replica, killing a shard makes its columns unavailable; restarting
// it from its persistence directory replays the journal and brings every
// acknowledged column back byte-identical.
func TestClusterShardKillRestart(t *testing.T) {
	dir := t.TempDir()
	c := MustNew(Config{Shards: 2, Replicas: 1, PersistDir: dir})
	defer c.Close()
	pageSize := c.PageSize()
	rng := rand.New(rand.NewSource(3))
	want := map[uint64][]byte{}
	for key := uint64(1); key <= 16; key++ {
		data := make([]byte, pageSize)
		rng.Read(data)
		if _, err := c.WriteColumn("t", key, data); err != nil {
			t.Fatalf("write %d: %v", key, err)
		}
		want[key] = data
	}
	for _, id := range []int{0, 1} {
		if _, err := os.Stat(filepath.Join(dir, "shard"+string(rune('0'+id)), "CURRENT")); err != nil {
			t.Fatalf("shard %d has no persistence root: %v", id, err)
		}
	}

	const victim = 0
	if err := c.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	lost := 0
	for key := range want {
		if _, _, err := c.ReadColumn("t", key); err != nil {
			if !errors.Is(err, ErrUnavailable) {
				t.Fatalf("read %d with shard down: %v, want ErrUnavailable", key, err)
			}
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("victim shard owned no columns; test proves nothing")
	}

	info, err := c.RestartShard(victim)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if info.ReplayedRecords == 0 {
		t.Fatalf("restart replayed nothing: %+v", info)
	}
	t.Logf("shard %d recovery: %+v (%d columns were dark)", victim, info, lost)
	for key, w := range want {
		got, _, err := c.ReadColumn("t", key)
		if err != nil {
			t.Fatalf("read %d after restart: %v", key, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("key %d differs after shard restart", key)
		}
	}
}

// TestClusterRestartRequiresPersistence pins the error contract for
// in-memory clusters: KillShard still works (chaos testing), but
// RestartShard refuses rather than fabricating an empty shard.
func TestClusterRestartRequiresPersistence(t *testing.T) {
	c := MustNew(Config{Shards: 1, Replicas: 1})
	defer c.Close()
	if err := c.KillShard(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartShard(0); err == nil {
		t.Fatal("RestartShard on an in-memory cluster must fail")
	}
}

// TestClusterRestartRefusesLiveShard guards against double-mounting: a
// shard that is still alive must be killed before it can be restarted.
func TestClusterRestartRefusesLiveShard(t *testing.T) {
	c := MustNew(Config{Shards: 1, Replicas: 1, PersistDir: t.TempDir()})
	defer c.Close()
	if _, err := c.RestartShard(0); err == nil {
		t.Fatal("RestartShard on a live shard must fail")
	}
}

// TestRestartedShardKeepsTelemetry checks that a shard's device, not only
// its scheduler, reports into the cluster sink, also after RestartShard
// rebuilds it from disk: a query on the restarted shard moves its
// "shard<N>.ssd.op.*" counter and records spans on its flash lanes.
func TestRestartedShardKeepsTelemetry(t *testing.T) {
	c := MustNew(Config{Shards: 2, Replicas: 1, PersistDir: t.TempDir()})
	defer c.Close()
	sink := telemetry.New()
	sink.EnableTrace()
	c.SetTelemetry(sink)
	data := make([]byte, c.PageSize())
	for key := uint64(1); key <= 16; key++ {
		data[0] = byte(key)
		if _, err := c.WriteColumn("t", key, data); err != nil {
			t.Fatalf("write %d: %v", key, err)
		}
	}
	const victim = 0
	if err := c.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	var dark []uint64
	for key := uint64(1); key <= 16; key++ {
		if _, _, err := c.ReadColumn("t", key); errors.Is(err, ErrUnavailable) {
			dark = append(dark, key)
		}
	}
	if len(dark) < 2 {
		t.Fatalf("victim shard owns %d columns; the query needs two", len(dark))
	}
	if _, err := c.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
	scope := fmt.Sprintf("shard%d.", victim)
	before := flashSpans(sink, scope+"flash")
	if _, err := c.Query("t", plan.And(plan.Leaf(dark[0]), plan.Leaf(dark[1])), ssd.SchemeReAlloc); err != nil {
		t.Fatal(err)
	}
	var ops int64
	sink.EachCounter(func(name string, v int64) {
		if strings.HasPrefix(name, scope+"ssd.op.") {
			ops += v
		}
	})
	if ops == 0 {
		t.Errorf("no %sssd.op.* counter moved after a query on the restarted shard", scope)
	}
	if after := flashSpans(sink, scope+"flash"); after <= before {
		t.Errorf("%sflash lanes recorded %d spans before the query and %d after", scope, before, after)
	}
}

// flashSpans counts the spans recorded on the trace process named proc.
func flashSpans(sink *telemetry.Sink, proc string) int {
	pid := -1
	n := 0
	for _, ev := range sink.Trace().Events() {
		switch {
		case ev.Name == "process_name" && ev.Args["name"] == proc:
			pid = ev.PID
		case ev.Ph == "X" && ev.PID == pid:
			n++
		}
	}
	return n
}
