// Package cluster shards the simulated ParaBit SSD across N independent
// devices behind one host-facing front end.
//
// Each shard is a full ssd.Device with its own scheduler, virtual clock
// and NVMe queue pair; nothing is shared between shards, exactly like
// drives in separate bays. The front end routes bitmap columns to shards
// by consistent hashing (virtual nodes, so adding or removing a shard
// moves ~1/N of the keys), replicates each column across Replicas shards
// (reads fan out to the least-loaded live replica, writes fan in to all),
// and admits requests per tenant through token-bucket QoS running on
// virtual time.
//
// Queries route shard-locally when every operand column has a replica on
// one common shard — riding the §4.3.1 wire encoding through the shard's
// queue pair when the expression shape allows — and otherwise fall back
// to scatter/gather: sub-expressions execute where their operands live
// and the host combines result pages in software. Either way the result
// bytes are identical to a single-device execution of the same
// expression, which the differential tests assert.
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"parabit/internal/nvme"
	"parabit/internal/sched"
	"parabit/internal/sim"
	"parabit/internal/ssd"
	"parabit/internal/telemetry"
)

// Cluster errors.
var (
	// ErrNoShards reports an operation against a cluster with no live shards.
	ErrNoShards = errors.New("cluster: no live shards")
	// ErrUnknownColumn reports a read or query of a key never written.
	ErrUnknownColumn = errors.New("cluster: unknown column")
	// ErrUnavailable reports a column none of whose replicas is on a live
	// shard.
	ErrUnavailable = errors.New("cluster: column unavailable")
	// ErrNoSpace reports shard LPN exhaustion.
	ErrNoSpace = errors.New("cluster: shard out of pages")
	// ErrTooLarge reports a column write bigger than the shard page size.
	ErrTooLarge = errors.New("cluster: column exceeds page size")
)

// Every shard projects virtualNodes points onto the placement ring, and
// its NVMe submission queue holds queueDepth entries. Column writes keep
// up to maxInlineReplicas replicas' bookkeeping on the stack.
const (
	virtualNodes      = 64
	queueDepth        = 1024
	maxInlineReplicas = 4
)

// Config parameterizes a cluster.
type Config struct {
	// Shards is the initial shard count.
	Shards int
	// Replicas is the number of shards each column is stored on
	// (default 1; 2+ survives shard loss).
	Replicas int
	// Device configures every shard's SSD. The zero value means
	// ssd.SmallConfig().
	Device ssd.Config
	// PlacementOf maps a column key to its placement group: keys with
	// equal groups hash to the same replica set and the same plane, so
	// cross-column operations over one group run shard-locally and
	// location-free. Nil means identity (every key its own group).
	PlacementOf func(key uint64) uint64
	// PersistDir, when non-empty, backs every shard with an on-disk
	// journal+snapshot store under PersistDir/shard<id>. A killed shard
	// can then be restarted from disk with RestartShard.
	PersistDir string
	// SnapshotEvery is the per-shard journal compaction threshold
	// (persist.Config.SnapshotEvery); 0 means the store default.
	SnapshotEvery int
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.Device.Geometry.PageSize == 0 {
		c.Device = ssd.SmallConfig()
	}
	if c.PlacementOf == nil {
		c.PlacementOf = func(key uint64) uint64 { return key }
	}
	return c
}

// Shard is one device bay: a simulated SSD, its scheduler and its NVMe
// queue pair. Requests read id, dev, sched and qp outside the cluster
// lock, so they are assigned only at construction.
type Shard struct {
	id    int
	dev   *ssd.Device
	sched *sched.Scheduler
	qp    *nvme.QueuePair
	alive atomic.Bool
	// reads and writes count commands routed here, the load signal the
	// replica selector balances on.
	reads, writes atomic.Int64

	mu      sync.Mutex
	nextLPN uint64 // guarded by mu
	maxLPN  uint64 // guarded by mu
	// free recycles LPNs of replicas dropped by rebalance, so shard
	// add/remove churn doesn't permanently leak pages off the bump
	// allocator.
	free []uint64 // guarded by mu
}

// ID returns the shard's cluster-wide id.
func (sh *Shard) ID() int { return sh.id }

// Alive reports whether the shard serves traffic.
func (sh *Shard) Alive() bool { return sh.alive.Load() }

// Scheduler exposes the shard's command scheduler (statistics, drains).
func (sh *Shard) Scheduler() *sched.Scheduler { return sh.sched }

// QueuePair exposes the shard's NVMe transport.
func (sh *Shard) QueuePair() *nvme.QueuePair { return sh.qp }

// Reads returns the number of read-side commands routed to this shard.
func (sh *Shard) Reads() int64 { return sh.reads.Load() }

// Writes returns the number of write-side commands routed to this shard.
func (sh *Shard) Writes() int64 { return sh.writes.Load() }

// allocLPN hands out the shard's next free logical page, recycled pages
// first.
func (sh *Shard) allocLPN() (uint64, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n := len(sh.free); n > 0 {
		lpn := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return lpn, nil
	}
	if sh.nextLPN >= sh.maxLPN {
		return 0, fmt.Errorf("%w: shard %d", ErrNoSpace, sh.id)
	}
	lpn := sh.nextLPN
	sh.nextLPN++
	return lpn, nil
}

// freeLPN returns a no-longer-referenced page to the allocator.
func (sh *Shard) freeLPN(lpn uint64) {
	sh.mu.Lock()
	sh.free = append(sh.free, lpn)
	sh.mu.Unlock()
}

// replica is one stored copy of a column.
type replica struct {
	shard int
	lpn   uint64
}

// column is the front end's directory entry for one key. Entries are
// owned by the directory: their mutable fields are guarded by the
// cluster lock, not one of their own.
type column struct {
	key      uint64
	size     int       // guarded by Cluster.mu
	replicas []replica // guarded by Cluster.mu
}

// liveLocked filters the column's replicas to live shards.
func (col *column) liveLocked(shards map[int]*Shard) []replica {
	out := make([]replica, 0, len(col.replicas))
	for _, r := range col.replicas {
		if sh, ok := shards[r.shard]; ok && sh.Alive() {
			out = append(out, r)
		}
	}
	return out
}

// hasLiveLocked reports whether any of the column's replicas is on a live
// shard.
func (col *column) hasLiveLocked(shards map[int]*Shard) bool {
	for _, r := range col.replicas {
		if sh, ok := shards[r.shard]; ok && sh.Alive() {
			return true
		}
	}
	return false
}

// replicaOnLocked returns the column's replica on shard id, if it has one.
func (col *column) replicaOnLocked(id int) (replica, bool) {
	for _, r := range col.replicas {
		if r.shard == id {
			return r, true
		}
	}
	return replica{}, false
}

// clusterTele holds the front end's telemetry handles; all-nil is the
// disabled state.
type clusterTele struct {
	sink         *telemetry.Sink
	cWrites      *telemetry.Counter
	cReads       *telemetry.Counter
	cQueries     *telemetry.Counter
	cRouteLocal  *telemetry.Counter
	cRouteWire   *telemetry.Counter
	cRouteScat   *telemetry.Counter
	cRejectRate  *telemetry.Counter
	cRejectQueue *telemetry.Counter
	cUnavailable *telemetry.Counter
	hQuery       *telemetry.Histogram
}

// Cluster is the host-facing front end over the shard set. The
// directory lock nests outside the per-shard allocator locks: placement
// and rebalance allocate shard pages while holding the directory, so a
// shard lock must never wait on the directory.
//
//parabit:lockorder Cluster.mu < Shard.mu
type Cluster struct {
	cfg Config

	mu      sync.RWMutex
	ring    *ring              // guarded by mu
	shards  map[int]*Shard     // guarded by mu
	order   []int              // guarded by mu; shard ids in creation order, for stable iteration
	nextID  int                // guarded by mu
	columns map[uint64]*column // guarded by mu

	adm     admitter
	tele    clusterTele
	scratch scratchList
}

// New builds a cluster of cfg.Shards fresh devices.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:     cfg,
		ring:    newRing(virtualNodes),
		shards:  make(map[int]*Shard),
		columns: make(map[uint64]*column),
	}
	c.adm.init()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < cfg.Shards; i++ {
		if _, err := c.addShardLocked(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// MustNew is New for configurations known valid at compile time.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the (defaulted) cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// PageSize returns the shard flash page size — the column granularity.
func (c *Cluster) PageSize() int { return c.cfg.Device.Geometry.PageSize }

// SetTelemetry attaches a sink: the front end gets routing counters and a
// query latency histogram, and every shard's scheduler and device get
// their own scoped lane set ("shard<N>.sched" and "shard<N>.flash" trace
// processes, "shard<N>.sched.*" and "shard<N>.ssd.*" series), so hot
// shards are visible per lane. Shards added or restarted later attach
// to the same sink. Call it before any traffic: requests read the front
// end's handles without the cluster lock.
func (c *Cluster) SetTelemetry(sink *telemetry.Sink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tele = clusterTele{
		sink:         sink,
		cWrites:      sink.Counter("cluster.writes"),
		cReads:       sink.Counter("cluster.reads"),
		cQueries:     sink.Counter("cluster.queries"),
		cRouteLocal:  sink.Counter("cluster.route.local"),
		cRouteWire:   sink.Counter("cluster.route.wire"),
		cRouteScat:   sink.Counter("cluster.route.scatter"),
		cRejectRate:  sink.Counter("cluster.admission.rejected.rate"),
		cRejectQueue: sink.Counter("cluster.admission.rejected.queue"),
		cUnavailable: sink.Counter("cluster.unavailable"),
		hQuery:       sink.Histogram("cluster.query.latency"),
	}
	c.adm.setTelemetry(c.tele.cRejectRate, c.tele.cRejectQueue)
	for _, id := range c.order {
		c.attachShardLocked(c.shards[id])
	}
}

// attachShardLocked points a shard's scheduler and device at the shard's
// scope of the cluster sink; with no sink attached it detaches them.
func (c *Cluster) attachShardLocked(sh *Shard) {
	sh.sched.SetTelemetry(c.tele.sink.Scope(fmt.Sprintf("shard%d", sh.id)))
}

// shardDir is the on-disk store directory for one shard id.
func (c *Cluster) shardDir(id int) string {
	return filepath.Join(c.cfg.PersistDir, fmt.Sprintf("shard%d", id))
}

// addShardLocked creates a shard, registers its ring points and returns it.
func (c *Cluster) addShardLocked() (*Shard, error) {
	var dev *ssd.Device
	var err error
	if c.cfg.PersistDir != "" {
		dev, err = ssd.Create(c.shardDir(c.nextID), c.cfg.Device, c.cfg.SnapshotEvery)
	} else {
		dev, err = ssd.New(c.cfg.Device)
	}
	if err != nil {
		return nil, err
	}
	sh := &Shard{
		id:     c.nextID,
		dev:    dev,
		sched:  sched.New(dev),
		qp:     nvme.NewQueuePair(queueDepth),
		maxLPN: dev.UserPages(),
	}
	sh.alive.Store(true)
	c.nextID++
	c.shards[sh.id] = sh
	c.order = append(c.order, sh.id)
	c.ring.add(sh.id)
	c.attachShardLocked(sh)
	return sh, nil
}

// Shards returns the live shard count and total shard count.
func (c *Cluster) Shards() (live, total int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, sh := range c.shards {
		if sh.Alive() {
			live++
		}
	}
	return live, len(c.shards)
}

// Shard returns the shard with the given id, or nil.
func (c *Cluster) Shard(id int) *Shard {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.shards[id]
}

// EachShard calls f for every shard in creation order.
func (c *Cluster) EachShard(f func(*Shard)) {
	c.mu.RLock()
	ids := append([]int(nil), c.order...)
	shards := make([]*Shard, 0, len(ids))
	for _, id := range ids {
		shards = append(shards, c.shards[id])
	}
	c.mu.RUnlock()
	for _, sh := range shards {
		f(sh)
	}
}

// Now returns the cluster's virtual clock: the latest shard issue cursor.
// Admission buckets refill against this clock, so rate limits advance
// with simulated work, not wall time.
func (c *Cluster) Now() sim.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nowLocked()
}

func (c *Cluster) nowLocked() sim.Time {
	var now sim.Time
	for _, sh := range c.shards {
		now = sim.Max(now, sh.sched.Now())
	}
	return now
}

// SetTenantQoS installs (or replaces) a tenant's admission policy.
func (c *Cluster) SetTenantQoS(tenant string, q QoS) { c.adm.set(tenant, q) }

// liveLeastLoadedLocked picks the live replica with the shortest queue,
// breaking ties by routed-read count and then shard id, so fan-out
// spreads over replicas instead of pinning one.
func (c *Cluster) liveLeastLoadedLocked(reps []replica) (*Shard, replica, bool) {
	var best *Shard
	var bestRep replica
	for _, r := range reps {
		sh := c.shards[r.shard]
		if sh == nil || !sh.Alive() {
			continue
		}
		if best == nil {
			best, bestRep = sh, r
			continue
		}
		bp, sp := best.sched.Pending(), sh.sched.Pending()
		if sp < bp ||
			(sp == bp && sh.reads.Load() < best.reads.Load()) ||
			(sp == bp && sh.reads.Load() == best.reads.Load() && sh.id < best.id) {
			best, bestRep = sh, r
		}
	}
	return best, bestRep, best != nil
}

// placeLocked creates the directory entry for a new key: ring lookup on
// the placement group, one LPN per replica shard. The entry starts at
// size zero; the writer commits the real size after its replicas ack.
func (c *Cluster) placeLocked(key uint64) (*column, error) {
	group := c.cfg.PlacementOf(key)
	var buf [maxInlineReplicas]int
	owners := c.ring.lookup(group, c.cfg.Replicas, buf[:0])
	if len(owners) == 0 {
		return nil, ErrNoShards
	}
	col := &column{key: key, replicas: make([]replica, 0, len(owners))}
	for _, id := range owners {
		lpn, err := c.shards[id].allocLPN()
		if err != nil {
			return nil, err
		}
		col.replicas = append(col.replicas, replica{shard: id, lpn: lpn})
	}
	c.columns[key] = col
	return col, nil
}

// planeOf maps a placement group to the plane index its columns share.
func planeOf(group uint64) int { return int(group & 0x3fffffff) }

// WriteColumn stores (or overwrites) one column under the tenant's QoS.
// The write fans in to every live replica and acknowledges only when all
// of them completed — a dead shard's replica is skipped and repaired
// later, but a failure on a live replica fails the write.
func (c *Cluster) WriteColumn(tenant string, key uint64, data []byte) (sim.Time, error) {
	if ps := c.PageSize(); len(data) > ps {
		return 0, fmt.Errorf("%w: column %d: %d bytes > page size %d", ErrTooLarge, key, len(data), ps)
	}
	tn, err := c.adm.admit(tenant, c.Now())
	if err != nil {
		return 0, err
	}
	defer tn.release()
	c.tele.cWrites.Add(1)

	c.mu.Lock()
	col := c.columns[key]
	if col == nil {
		// Placed with size 0: the directory commits the real size only
		// once every replica write succeeds, so a failed first write
		// reads back as an empty column, never as garbage.
		col, err = c.placeLocked(key)
		if err != nil {
			c.mu.Unlock()
			return 0, err
		}
	}
	group := c.cfg.PlacementOf(key)
	type target struct {
		sh  *Shard
		lpn uint64
	}
	var tbuf [maxInlineReplicas]target
	targets := tbuf[:0]
	for _, r := range col.replicas {
		if sh := c.shards[r.shard]; sh != nil && sh.Alive() {
			targets = append(targets, target{sh, r.lpn})
		}
	}
	c.mu.Unlock()

	if len(targets) == 0 {
		c.tele.cUnavailable.Add(1)
		return 0, fmt.Errorf("%w: column %d", ErrUnavailable, key)
	}
	var kbuf [maxInlineReplicas]*sched.Ticket
	tickets := kbuf[:0]
	for _, t := range targets {
		t.sh.writes.Add(1)
		tickets = append(tickets, t.sh.sched.Submit(sched.Command{
			Kind:  sched.KindWriteOnPlane,
			LPN:   t.lpn,
			Data:  data,
			Plane: planeOf(group),
		}))
	}
	var done sim.Time
	for i, tk := range tickets {
		res := tk.Wait()
		if res.Err != nil {
			return 0, fmt.Errorf("cluster: write key %d shard %d: %w", key, targets[i].sh.id, res.Err)
		}
		done = sim.Max(done, res.Done)
	}
	// Every replica acknowledged: commit the new size to the directory.
	// Until here concurrent readers see the previous size against the
	// previous data, never a new size over old bytes.
	c.mu.Lock()
	col.size = len(data)
	c.mu.Unlock()
	return done, nil
}

// ReadColumn returns one column's bytes from the least-loaded live
// replica, shipped over that shard's host link.
func (c *Cluster) ReadColumn(tenant string, key uint64) ([]byte, sim.Time, error) {
	tn, err := c.adm.admit(tenant, c.Now())
	if err != nil {
		return nil, 0, err
	}
	defer tn.release()
	c.tele.cReads.Add(1)

	c.mu.RLock()
	col := c.columns[key]
	var sh *Shard
	var rep replica
	var size int
	ok := false
	if col != nil {
		// Snapshot the size under the lock: WriteColumn mutates col.size
		// under c.mu, so reading it after RUnlock would race.
		size = col.size
		sh, rep, ok = c.liveLeastLoadedLocked(col.replicas)
	}
	c.mu.RUnlock()

	if col == nil {
		return nil, 0, fmt.Errorf("%w: key %d", ErrUnknownColumn, key)
	}
	if !ok {
		c.tele.cUnavailable.Add(1)
		return nil, 0, fmt.Errorf("%w: column %d", ErrUnavailable, key)
	}
	sh.reads.Add(1)
	res := sh.sched.Submit(sched.Command{Kind: sched.KindRead, LPN: rep.lpn, ToHost: true}).Wait()
	if res.Err != nil {
		return nil, 0, fmt.Errorf("cluster: read key %d shard %d: %w", key, sh.id, res.Err)
	}
	return res.Data[:size], res.Done, nil
}

// AddShard brings a new empty shard into the ring and rebalances: every
// column whose desired replica set changed is copied to its new owners
// and dropped from shards that no longer own it. Returns the new shard's
// id and the number of columns migrated.
func (c *Cluster) AddShard() (id, migrated int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh, err := c.addShardLocked()
	if err != nil {
		return 0, 0, err
	}
	migrated, err = c.rebalanceLocked()
	return sh.id, migrated, err
}

// RemoveShard drains a live shard gracefully: its columns move to their
// new ring owners first, then the shard leaves the ring and the map.
func (c *Cluster) RemoveShard(id int) (migrated int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := c.shards[id]
	if sh == nil {
		return 0, fmt.Errorf("cluster: no shard %d", id)
	}
	live := 0
	for _, s := range c.shards {
		if s.Alive() && s.id != id {
			live++
		}
	}
	if live == 0 {
		return 0, ErrNoShards
	}
	c.ring.remove(id)
	migrated, err = c.rebalanceLocked()
	if err != nil {
		return migrated, err
	}
	delete(c.shards, id)
	for i, oid := range c.order {
		if oid == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	return migrated, nil
}

// KillShard fails a shard abruptly: no drain, no migration, and — on a
// persistent cluster — no final snapshot: the shard's on-disk journal
// stays exactly as the crash left it. Its replicas stay in the
// directory (dead) until Repair re-replicates them or RestartShard
// brings the shard back from disk; columns with a live replica keep
// serving.
func (c *Cluster) KillShard(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := c.shards[id]
	if sh == nil {
		return fmt.Errorf("cluster: no shard %d", id)
	}
	sh.alive.Store(false)
	sh.dev.Crash()
	c.ring.remove(id)
	return nil
}

// RestartShard recovers a killed shard from its on-disk store: the
// journal is replayed onto the last snapshot, invariants are checked,
// and a new Shard with a fresh scheduler and queue pair replaces the
// killed one, keeping its id, page allocator and routed-command counts.
// Every write the old incarnation acknowledged is present; everything
// in flight at the kill is not. Only valid on persistent clusters.
func (c *Cluster) RestartShard(id int) (ssd.RecoveryInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.PersistDir == "" {
		return ssd.RecoveryInfo{}, fmt.Errorf("cluster: restart shard %d: cluster is not persistent", id)
	}
	sh := c.shards[id]
	if sh == nil {
		return ssd.RecoveryInfo{}, fmt.Errorf("cluster: no shard %d", id)
	}
	if sh.Alive() {
		return ssd.RecoveryInfo{}, fmt.Errorf("cluster: restart shard %d: still alive", id)
	}
	dev, info, err := ssd.Open(c.shardDir(id), c.cfg.SnapshotEvery)
	if err != nil {
		return ssd.RecoveryInfo{}, fmt.Errorf("cluster: restart shard %d: %w", id, err)
	}
	sh.mu.Lock()
	next := &Shard{
		id:      id,
		dev:     dev,
		sched:   sched.New(dev),
		qp:      nvme.NewQueuePair(queueDepth),
		nextLPN: sh.nextLPN,
		maxLPN:  sh.maxLPN,
		free:    sh.free,
	}
	sh.mu.Unlock()
	next.reads.Store(sh.reads.Load())
	next.writes.Store(sh.writes.Load())
	c.attachShardLocked(next)
	next.alive.Store(true)
	c.shards[id] = next
	c.ring.add(id)
	return info, nil
}

// Close shuts the cluster down gracefully: every live shard drains its
// scheduler and closes its device (taking a final compaction snapshot
// on persistent clusters). Dead shards are left as their crash left
// them. The cluster must not be used after Close.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	for _, id := range c.order {
		sh := c.shards[id]
		if !sh.Alive() {
			continue
		}
		if err := sh.sched.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster: close shard %d: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// rebalanceLocked moves every column whose ring owners changed: copies to
// new owners, drops replicas on shards that no longer own the column.
// Dead shards' replicas are left for Repair. The copy traffic runs
// through the shard schedulers, so it costs virtual time like any host.
func (c *Cluster) rebalanceLocked() (migrated int, err error) {
	for _, col := range c.columns {
		group := c.cfg.PlacementOf(col.key)
		desired := c.ring.lookup(group, c.cfg.Replicas, nil)
		want := make(map[int]bool, len(desired))
		for _, id := range desired {
			want[id] = true
		}
		have := make(map[int]bool, len(col.replicas))
		for _, r := range col.replicas {
			have[r.shard] = true
		}
		changed := false
		for _, id := range desired {
			if !have[id] {
				changed = true
			}
		}
		if !changed {
			continue
		}
		data, rerr := c.copySourceLocked(col)
		if rerr != nil {
			return migrated, rerr
		}
		var kept []replica
		for _, r := range col.replicas {
			sh := c.shards[r.shard]
			if want[r.shard] || (sh != nil && !sh.Alive()) {
				kept = append(kept, r)
				continue
			}
			if sh != nil {
				sh.freeLPN(r.lpn)
			}
		}
		col.replicas = kept
		for _, id := range desired {
			if have[id] {
				continue
			}
			if werr := c.copyToLocked(col, id, group, data); werr != nil {
				return migrated, werr
			}
		}
		migrated++
	}
	return migrated, nil
}

// copySourceLocked reads a column from its least-loaded live replica for
// migration or repair.
func (c *Cluster) copySourceLocked(col *column) ([]byte, error) {
	sh, rep, ok := c.liveLeastLoadedLocked(col.replicas)
	if !ok {
		return nil, fmt.Errorf("%w: column %d", ErrUnavailable, col.key)
	}
	res := sh.sched.Submit(sched.Command{Kind: sched.KindRead, LPN: rep.lpn}).Wait()
	if res.Err != nil {
		return nil, fmt.Errorf("cluster: migrate read key %d shard %d: %w", col.key, sh.id, res.Err)
	}
	return res.Data, nil
}

// copyToLocked writes a column copy onto a shard and records the replica.
func (c *Cluster) copyToLocked(col *column, id int, group uint64, data []byte) error {
	sh := c.shards[id]
	lpn, err := sh.allocLPN()
	if err != nil {
		return err
	}
	res := sh.sched.Submit(sched.Command{
		Kind: sched.KindWriteOnPlane, LPN: lpn, Data: data, Plane: planeOf(group),
	}).Wait()
	if res.Err != nil {
		return fmt.Errorf("cluster: migrate write key %d shard %d: %w", col.key, id, res.Err)
	}
	col.replicas = append(col.replicas, replica{shard: id, lpn: lpn})
	return nil
}

// Reclaim does nothing: every reallocation trims its own pages once its
// sense returns, so no shard accumulates controller-internal pages. It
// stays for callers written when they had to be reclaimed.
func (c *Cluster) Reclaim() {}

// Repair restores the replication factor after shard loss: every column
// with fewer live replicas than configured is copied from a survivor to
// its next ring owners, and dead replicas leave the directory. Returns
// the number of columns repaired.
func (c *Cluster) Repair() (repaired int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, col := range c.columns {
		liveReps := col.liveLocked(c.shards)
		if len(liveReps) >= c.cfg.Replicas {
			continue
		}
		if len(liveReps) == 0 {
			return repaired, fmt.Errorf("%w: column %d lost all replicas", ErrUnavailable, col.key)
		}
		data, rerr := c.copySourceLocked(col)
		if rerr != nil {
			return repaired, rerr
		}
		have := make(map[int]bool, len(liveReps))
		for _, r := range liveReps {
			have[r.shard] = true
		}
		col.replicas = liveReps
		group := c.cfg.PlacementOf(col.key)
		for _, id := range c.ring.lookup(group, len(c.shards), nil) {
			if len(col.replicas) >= c.cfg.Replicas {
				break
			}
			if have[id] || !c.shards[id].Alive() {
				continue
			}
			if werr := c.copyToLocked(col, id, group, data); werr != nil {
				return repaired, werr
			}
		}
		repaired++
	}
	return repaired, nil
}
