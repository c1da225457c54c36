package sched

import (
	"parabit/internal/faults"
	"parabit/internal/flash"
	"parabit/internal/ftl"
	"parabit/internal/persist"
	"parabit/internal/sim"
	"parabit/internal/ssd"
)

// Counters is one read of a device's event counts: the scheduler's own
// and those every layer below it keeps in its Stats.
type Counters struct {
	Sched Stats
	Op    ssd.OpStats
	Query ssd.QueryStats
	FTL   ftl.Stats
	Flash flash.Stats
	// Persist holds the store's counters; it is zero, and Persistent
	// false, on an in-memory device.
	Persist    persist.Stats
	Persistent bool
	// Faults counts the last fault plan's injections; zero without one.
	Faults faults.Stats
}

// Counters drains the queue and then, in the same hold of the mutex,
// reads every layer's counters, so they cover every submitted command
// and agree with one another.
func (s *Scheduler) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dispatchLocked()
	return s.countersLocked()
}

func (s *Scheduler) countersLocked() Counters {
	c := Counters{
		Sched: s.stats,
		Op:    s.dev.Stats(),
		Query: s.dev.QueryStats(),
		FTL:   s.dev.FTL().Stats(),
		Flash: s.dev.Array().Stats(),
	}
	c.Persist, c.Persistent = s.dev.PersistStats()
	if s.faults != nil {
		c.Faults = s.faults.Stats()
	}
	return c
}

// PublishMetrics writes into the attached sink, under their metric
// names, the counts every layer keeps in its Stats (scheduler through
// flash, the store on a persistent device, the fault engine once a plan
// was installed), read as Counters reads them. Telemetry keeps no second
// count of these events, so an export calls this first. It does not
// dispatch; with no sink attached it does nothing.
func (s *Scheduler) PublishMetrics() {
	s.mu.Lock()
	defer s.mu.Unlock()
	sink := s.sink
	if sink == nil {
		return
	}
	count := func(name string, v int64) { sink.Counter(name).Set(v) }
	level := func(name string, v int64) { sink.Gauge(name).Set(v) }
	c := s.countersLocked()
	st, op, q, ft, fl := c.Sched, c.Op, c.Query, c.FTL, c.Flash
	count("sched.batches", st.Batches)
	count("sched.retries", st.Retries)
	count("sched.retries_exhausted", st.RetriesExhausted)
	count("ssd.bitwise.ops", op.BitwiseOps)
	count("ssd.reallocations", op.Reallocations)
	count("ssd.realloc.pages", op.ReallocPages)
	count("ssd.descrambled_reads", op.DescrambledOps)
	count("ssd.result_bytes", op.ResultBytes)
	count("ssd.query.plans", q.Queries)
	count("ssd.query.steps", q.PlanSteps)
	count("ssd.query.fused_chains", q.FusedChains)
	count("ssd.query.cache.hits", q.Cache.Hits)
	count("ssd.query.cache.misses", q.Cache.Misses)
	count("ssd.query.cache.evictions", q.Cache.Evictions)
	count("ftl.gc.runs", ft.GCRuns)
	count("ftl.gc.pages_moved", ft.GCPagesMoved)
	count("ftl.padded_pages", ft.PaddedPages)
	count("ftl.faults.program_fails", ft.ProgramFails)
	count("ftl.faults.erase_fails", ft.EraseFails)
	count("ftl.bad_blocks.retired", ft.BlocksRetired)
	count("ftl.faults.resteered_writes", ft.ResteeredWrites)
	level("flash.sros", fl.SROs)
	level("flash.programs", fl.Programs)
	level("flash.erases", fl.Erases)
	level("ftl.write_amp_milli", int64(ft.WriteAmplification()*1000))
	if ps := c.Persist; c.Persistent {
		count("persist.journal.bytes", ps.JournalBytes)
		count("persist.journal.records", ps.JournalRecords)
		count("persist.journal.writes", ps.JournalWrites)
		count("persist.snapshots", ps.Snapshots)
		count("persist.snapshot.bytes", ps.SnapshotBytes)
		count("persist.snapshots.full", ps.FullSnapshots)
		count("persist.replay.records", ps.ReplayedRecords)
		level("persist.recovery_us", int64(ps.RecoveryTime/sim.Microsecond))
	}
	if fs := c.Faults; s.faults != nil {
		count("faults.plane_transient", fs.PlaneTransient)
		count("faults.plane_dead", fs.PlaneDead)
		count("faults.program_fail", fs.ProgramFails)
		count("faults.erase_fail", fs.EraseFails)
		count("faults.stuck_block", fs.StuckBlock)
		count("faults.power_cut", fs.PowerCuts)
		count("faults.jitter_events", fs.JitterEvents)
	}
}
