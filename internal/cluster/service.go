package cluster

import (
	"fmt"
	"math/bits"

	"parabit/internal/plan"
	"parabit/internal/sim"
	"parabit/internal/ssd"
	"parabit/internal/workload"
)

// BitmapService turns the §5.3.2 batch workload into a live queryable
// service: the activity matrix loads as sharded columns and "active on
// all of these days" questions answer on demand, each day column split
// into page-sized chunks. Column keys encode (chunk, day); placing
// clusters by chunk keeps chunk i of every day column on one replica
// set, so per-chunk cross-day reductions route shard-locally and the
// operand pages share a plane — the location-free layout.

// chunkShift packs keys as chunk<<chunkShift | day.
const chunkShift = 16

// ColumnKey names chunk i of day column d — the key layout BitmapService
// stores under, exported so load drivers can address raw columns.
func ColumnKey(chunk, day int) uint64 {
	return uint64(chunk)<<chunkShift | uint64(day)
}

// PlacementByChunk is the Config.PlacementOf a BitmapService cluster
// must use: all days of one chunk share a placement group.
func PlacementByChunk(key uint64) uint64 { return key >> chunkShift }

// BitmapService serves a loaded bitmap over a cluster.
type BitmapService struct {
	c      *Cluster
	spec   workload.BitmapSpec
	chunks int
}

// NewBitmapService sizes the service for the spec: ColumnBytes split
// into page-sized chunks.
func NewBitmapService(c *Cluster, spec workload.BitmapSpec) (*BitmapService, error) {
	if spec.Days() >= 1<<chunkShift {
		return nil, fmt.Errorf("cluster: %d day columns exceed key space", spec.Days())
	}
	page := int64(c.PageSize())
	chunks := int((spec.ColumnBytes() + page - 1) / page)
	if chunks < 1 {
		chunks = 1
	}
	return &BitmapService{c: c, spec: spec, chunks: chunks}, nil
}

// Chunks returns the per-day column chunk count.
func (s *BitmapService) Chunks() int { return s.chunks }

// Load writes every day column, chunked and zero-padded to page size.
// Padding bits stay zero through every bitwise reduction, so popcounts
// need no tail masking.
func (s *BitmapService) Load(tenant string, d *workload.BitmapData) error {
	// One page buffer serves every chunk: the scheduler copies a write's
	// payload at submit, and WriteColumn returns once every replica is
	// written.
	buf := make([]byte, s.c.PageSize())
	for day, col := range d.Columns {
		raw := col.Bytes()
		for chunk := 0; chunk < s.chunks; chunk++ {
			n := 0
			if lo := chunk * len(buf); lo < len(raw) {
				n = copy(buf, raw[lo:])
			}
			clear(buf[n:])
			if _, err := s.c.WriteColumn(tenant, ColumnKey(chunk, day), buf); err != nil {
				return fmt.Errorf("cluster: load day %d chunk %d: %w", day, chunk, err)
			}
		}
	}
	return nil
}

// ActiveAcrossDays counts users active on every listed day: per chunk an
// AND reduction over the day columns (shard-local when the chunk's
// replicas colocate), popcounted host-side. Elapsed is the slowest
// chunk's query — chunks live on different shards and serve in parallel.
func (s *BitmapService) ActiveAcrossDays(tenant string, days []int, scheme ssd.Scheme) (int, sim.Duration, error) {
	if len(days) == 0 {
		return 0, 0, fmt.Errorf("cluster: no days to intersect")
	}
	count := 0
	var slowest sim.Duration
	for chunk := 0; chunk < s.chunks; chunk++ {
		data, elapsed, err := s.queryChunk(tenant, chunk, days, scheme)
		if err != nil {
			return 0, 0, err
		}
		for _, b := range data {
			count += bits.OnesCount8(b)
		}
		if elapsed > slowest {
			slowest = elapsed
		}
	}
	return count, slowest, nil
}

func (s *BitmapService) queryChunk(tenant string, chunk int, days []int, scheme ssd.Scheme) ([]byte, sim.Duration, error) {
	if len(days) == 1 {
		start := s.c.Now()
		data, done, err := s.c.ReadColumn(tenant, ColumnKey(chunk, days[0]))
		if err != nil {
			return nil, 0, err
		}
		elapsed := done.Sub(start)
		if elapsed < 0 {
			elapsed = 0
		}
		return data, elapsed, nil
	}
	leaves := make([]*plan.Expr, len(days))
	for i, d := range days {
		leaves[i] = plan.Leaf(ColumnKey(chunk, d))
	}
	res, err := s.c.Query(tenant, plan.And(leaves...), scheme)
	if err != nil {
		return nil, 0, err
	}
	return res.Data, res.Elapsed, nil
}
