package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"parabit/internal/persist"
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

// TestRestartShardUnderTraffic kills and restarts the only shard of a
// persistent cluster in a loop while four goroutines read, query and
// write columns. Under -race it checks that a restart installs a new
// Shard instead of rewriting the handles a request reads outside the
// cluster lock. A request may fail only because the shard is down
// (ErrUnavailable) or its old incarnation was cut (ErrPowerCut), and
// every answer it does return holds the right bytes.
func TestRestartShardUnderTraffic(t *testing.T) {
	c := MustNew(Config{Shards: 1, Replicas: 1, PersistDir: t.TempDir()})
	defer c.Close()
	ps := c.PageSize()
	// page fills a column with its key and version, so any read can be
	// checked for being some whole write of that key.
	page := func(key uint64, version byte) []byte {
		p := make([]byte, ps)
		for i := range p {
			p[i] = byte(key)*31 + version + byte(i%7)
		}
		return p
	}
	whole := func(key uint64, p []byte) bool {
		return bytes.Equal(p, page(key, p[0]-byte(key)*31))
	}
	// Keys 1 and 2 never change, so a query over them has one answer;
	// key 12 is overwritten throughout.
	for _, key := range []uint64{1, 2, 12} {
		if _, err := c.WriteColumn("t", key, page(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]byte, ps)
	a, b := page(1, 0), page(2, 0)
	for i := range want {
		want[i] = a[i] & b[i]
	}
	q := plan.And(plan.Leaf(1), plan.Leaf(2))
	expected := func(err error) bool {
		return err == nil || errors.Is(err, ErrUnavailable) || errors.Is(err, persist.ErrPowerCut)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := byte(1); ; v++ {
				select {
				case <-done:
					return
				default:
				}
				var err error
				switch g {
				case 0:
					var got []byte
					if got, _, err = c.ReadColumn("t", 1); err == nil && !bytes.Equal(got, a) {
						err = fmt.Errorf("read of key 1 returned wrong bytes")
					}
				case 1:
					var res QueryResult
					if res, err = c.Query("t", q, ssd.SchemeLocFree); err == nil && !bytes.Equal(res.Data, want) {
						err = fmt.Errorf("query returned wrong bytes")
					}
				case 2:
					_, err = c.WriteColumn("t", 12, page(12, v))
				case 3:
					var got []byte
					if got, _, err = c.ReadColumn("t", 12); err == nil && !whole(12, got) {
						err = fmt.Errorf("read of key 12 returned a torn column")
					}
				}
				if !expected(err) {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		if err := c.KillShard(0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RestartShard(0); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
