package cluster

import (
	"testing"

	"parabit/internal/sim"
	"parabit/internal/ssd"
	"parabit/internal/telemetry"
	"parabit/internal/workload"
)

// TestBitmapServiceMatchesGolden loads a multi-page bitmap across the
// cluster and checks the served every-day intersection count against the
// workload generator's software golden.
func TestBitmapServiceMatchesGolden(t *testing.T) {
	c := MustNew(Config{Shards: 4, Replicas: 2, PlacementOf: PlacementByChunk})
	// ~6 page-sized chunks per day column at the small geometry.
	spec := workload.CustomBitmap(int64(c.PageSize()*8*6-13), 5, 0)
	data, err := workload.GenerateBitmap(spec, 42)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	svc, err := NewBitmapService(c, spec)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	if svc.Chunks() < 2 {
		t.Fatalf("want a multi-chunk bitmap, got %d chunks", svc.Chunks())
	}
	if err := svc.Load("app", data); err != nil {
		t.Fatalf("load: %v", err)
	}
	days := make([]int, spec.Days())
	for i := range days {
		days[i] = i
	}
	for _, scheme := range ssd.Schemes {
		count, elapsed, err := svc.ActiveAcrossDays("app", days, scheme)
		if err != nil {
			t.Fatalf("scheme %d: %v", scheme, err)
		}
		if count != data.ActiveCount {
			t.Fatalf("scheme %d: served count %d, golden %d", scheme, count, data.ActiveCount)
		}
		if elapsed <= 0 {
			t.Fatalf("scheme %d: non-positive service time %v", scheme, elapsed)
		}
	}

	// Subset and single-day paths.
	count, _, err := svc.ActiveAcrossDays("app", []int{0, 2}, ssd.SchemeLocFree)
	if err != nil {
		t.Fatalf("two-day query: %v", err)
	}
	gold := 0
	for u := 0; u < data.Columns[0].Len(); u++ {
		if data.Columns[0].Get(u) && data.Columns[2].Get(u) {
			gold++
		}
	}
	if count != gold {
		t.Fatalf("two-day count %d, golden %d", count, gold)
	}
	count, _, err = svc.ActiveAcrossDays("app", []int{1}, ssd.SchemeLocFree)
	if err != nil {
		t.Fatalf("single-day query: %v", err)
	}
	if count != data.Columns[1].PopCount() {
		t.Fatalf("single-day count %d, golden %d", count, data.Columns[1].PopCount())
	}
}

// TestBitmapServiceRoutesShardLocally pins the placement contract: with
// PlacementByChunk, every cross-day chunk reduction colocates.
func TestBitmapServiceRoutesShardLocally(t *testing.T) {
	c := MustNew(Config{Shards: 4, Replicas: 1, PlacementOf: PlacementByChunk})
	spec := workload.CustomBitmap(int64(c.PageSize()*8*3), 4, 0)
	data, err := workload.GenerateBitmap(spec, 7)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	svc, err := NewBitmapService(c, spec)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	if err := svc.Load("app", data); err != nil {
		t.Fatalf("load: %v", err)
	}
	sink := telemetry.New()
	c.SetTelemetry(sink)
	if _, _, err := svc.ActiveAcrossDays("app", []int{0, 1, 2, 3}, ssd.SchemeLocFree); err != nil {
		t.Fatalf("query: %v", err)
	}
	if n := sink.Counter("cluster.route.scatter").Value(); n != 0 {
		t.Fatalf("%d chunk reductions scattered; chunk placement should colocate all of them", n)
	}
	local := sink.Counter("cluster.route.local").Value() + sink.Counter("cluster.route.wire").Value()
	if local != int64(svc.Chunks()) {
		t.Fatalf("%d shard-local chunk reductions, want %d", local, svc.Chunks())
	}
}

// TestBitmapServiceFlashCosmosSensesInPlace: the bitmap columns land with
// KindWriteOnPlane, so a chunk's day columns are LSB pages of one plane,
// and with four wordlines per block each day's pass moves them into
// blocks of their own. No multi-wordline sense can take them, and
// Flash-Cosmos must serve the count as the location-free chain does: the
// same count and service time as LocFree, and no shard reallocating.
func TestBitmapServiceFlashCosmosSensesInPlace(t *testing.T) {
	days := []int{0, 1, 2, 3, 4}
	counts := map[ssd.Scheme]int{}
	elapsed := map[ssd.Scheme]sim.Duration{}
	for _, scheme := range []ssd.Scheme{ssd.SchemeLocFree, ssd.SchemeFlashCosmos} {
		dev := ssd.SmallConfig()
		dev.Geometry.WordlinesPerBlock = 4
		c := MustNew(Config{Shards: 2, Replicas: 2, PlacementOf: PlacementByChunk, Device: dev})
		defer c.Close()
		spec := workload.CustomBitmap(int64(c.PageSize()*8*48), len(days), 0)
		data, err := workload.GenerateBitmap(spec, 42)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		svc, err := NewBitmapService(c, spec)
		if err != nil {
			t.Fatalf("service: %v", err)
		}
		if err := svc.Load("app", data); err != nil {
			t.Fatalf("load: %v", err)
		}
		counts[scheme], elapsed[scheme], err = svc.ActiveAcrossDays("app", days, scheme)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if counts[scheme] != data.ActiveCount {
			t.Fatalf("%v: served count %d, golden %d", scheme, counts[scheme], data.ActiveCount)
		}
		c.EachShard(func(sh *Shard) {
			sh.Scheduler().Exclusive(func(d *ssd.Device, _ sim.Time) {
				if n := d.Stats().Reallocations; n != 0 {
					t.Errorf("%v: shard %d counts %d reallocations, want 0", scheme, sh.ID(), n)
				}
			})
		})
	}
	if counts[ssd.SchemeFlashCosmos] != counts[ssd.SchemeLocFree] {
		t.Errorf("Flash-Cosmos count %d, LocFree %d", counts[ssd.SchemeFlashCosmos], counts[ssd.SchemeLocFree])
	}
	if elapsed[ssd.SchemeFlashCosmos] != elapsed[ssd.SchemeLocFree] {
		t.Errorf("Flash-Cosmos served in %v, LocFree in %v", elapsed[ssd.SchemeFlashCosmos], elapsed[ssd.SchemeLocFree])
	}
}
