// Package sched provides a concurrency-safe command scheduler fronting an
// ssd.Device.
//
// The simulated device is single-threaded by construction: every operation
// mutates FTL maps, allocator lists and plane resources, and carries an
// explicit virtual issue time. sched makes that device safe and useful for
// many goroutines with a queue-and-batch discipline:
//
//   - Submit enqueues a Command and returns a Ticket without touching the
//     device; it never blocks on simulation work.
//   - Ticket.Wait dispatches every command queued so far as one batch,
//     under the scheduler mutex, all sharing the batch's issue instant.
//     Commands in one batch therefore overlap in virtual time exactly the
//     way independent page operations overlap on real hardware. The
//     commands run one after another, but the plane and channel
//     resources order their work by virtual time, not by that call
//     order: a command's sense issued at the batch instant fills an idle
//     gap ahead of programs an earlier command booked for later, even on
//     the same plane. Commands wait for each other only where they
//     genuinely conflict — on a busy resource, or on a block whose
//     programs, senses or erase they depend on — and the batch completes
//     at the latest per-command finish.
//   - The issue cursor then advances to that horizon, so the next batch
//     observes the device drained — a full barrier between batches.
//
// Sequential callers (submit, wait, submit, wait …) get batches of one and
// see exactly the latencies the bare device reports. Concurrent callers
// get wider batches and a virtual makespan shorter than the sum of their
// command latencies — the paper's §5.1 parallelism argument, observable
// through Stats().Utilization.
//
// Flush dispatches without submitting (a drain barrier), and Exclusive
// runs a caller-supplied function against the raw device with the queue
// drained and the mutex held, for snapshots and maintenance that must not
// interleave with commands.
package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"parabit/internal/faults"
	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/nvme"
	"parabit/internal/persist"
	"parabit/internal/plan"
	"parabit/internal/sim"
	"parabit/internal/ssd"
	"parabit/internal/telemetry"
)

// Kind identifies what a Command asks the device to do.
type Kind uint8

// Command kinds. The write kinds name the device's page layouts; each
// maps to the journal op (writeOps) the device places its pages by.
const (
	// KindWrite stores one page on the normal (scrambled) data path.
	KindWrite Kind = iota
	// KindWriteOperand stores one unscrambled operand page, striped.
	KindWriteOperand
	// KindWritePair co-locates two operand pages in one wordline.
	KindWritePair
	// KindWriteGroup places operand pages in aligned LSB slots of one plane.
	KindWriteGroup
	// KindWriteOnPlane places one operand page in an LSB slot of a chosen plane.
	KindWriteOnPlane
	// KindWriteTriple co-locates three operand pages in one TLC wordline.
	KindWriteTriple
	// KindWriteMWSGroup colocates operand pages in LSB slots of one block,
	// ESP-programmed — the Flash-Cosmos multi-wordline-sense layout.
	KindWriteMWSGroup
	// KindRead returns one logical page.
	KindRead
	// KindBitwise executes a two-operand in-flash operation.
	KindBitwise
	// KindBitwiseTriple executes a three-operand TLC operation.
	KindBitwiseTriple
	// KindReduce folds operand pages with an associative operation.
	KindReduce
	// KindFormula executes a parsed bitwise formula end to end.
	KindFormula
	// KindQuery plans and executes a bitmap-query expression tree.
	KindQuery
	// KindBarrier performs no device work; it completes when the batch
	// containing it issues, which makes Wait on it a drain point.
	KindBarrier

	numKinds = int(KindBarrier) + 1
)

// writeOps maps each write kind to the journal op naming its layout.
var writeOps = [...]persist.Op{
	KindWrite:         persist.OpWrite,
	KindWriteOperand:  persist.OpWriteOperand,
	KindWritePair:     persist.OpWritePair,
	KindWriteGroup:    persist.OpWriteLSBGroup,
	KindWriteOnPlane:  persist.OpWriteOnPlane,
	KindWriteTriple:   persist.OpWriteTriple,
	KindWriteMWSGroup: persist.OpWriteMWSGroup,
}

var kindNames = [numKinds]string{
	"write", "write-operand", "write-pair", "write-group", "write-on-plane",
	"write-triple", "write-mws-group", "read", "bitwise", "bitwise-triple",
	"reduce", "formula", "query", "barrier",
}

// ErrUnknownKind fails a command whose Kind names no command kind. Submit
// reports it on the ticket at once; such a command never queues.
var ErrUnknownKind = errors.New("sched: unknown command kind")

func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Command describes one device operation. Which fields matter depends on
// Kind; unused fields are ignored. LPNs, Data and Pages are copied at
// Submit, so callers may reuse their buffers immediately.
type Command struct {
	Kind Kind
	// LPN addresses single-page commands (read, and writes that leave
	// LPNs empty).
	LPN uint64
	// LPNs addresses multi-operand commands: [first, second] for
	// KindWritePair/KindBitwise, three entries for the triple kinds, k
	// entries for KindWriteGroup/KindReduce. For KindQuery it is the page
	// each leaf of Query reads, in Leaves order; nil means the leaves
	// name their pages themselves.
	LPNs []uint64
	// Data is the payload of single-page writes.
	Data []byte
	// Pages are the payloads of multi-page writes, parallel to LPNs.
	Pages [][]byte
	// Plane selects the target plane for KindWriteOnPlane.
	Plane int
	// Op is the latch operation for KindBitwise/KindReduce.
	Op latch.Op
	// Op3 is the three-operand TLC operation for KindBitwiseTriple.
	Op3 latch.TLCOp3
	// Scheme selects the execution scheme for bitwise kinds.
	Scheme ssd.Scheme
	// ToHost additionally ships the result over the host link, filling
	// Result.HostDone (KindRead, KindBitwise, KindBitwiseTriple,
	// KindReduce, KindQuery).
	ToHost bool
	// Batches are the parsed formula for KindFormula, one per term.
	Batches []nvme.Batch
	// Query is the expression tree for KindQuery. Expressions are
	// immutable after construction, so they are not copied at Submit.
	Query *plan.Expr
}

// Result is the outcome of one command.
type Result struct {
	// Data is the result page (bitwise, reduce) or page content (read).
	Data []byte
	// Pages holds formula results, one per sub-operation page.
	Pages [][]byte
	// Start is the virtual instant the command issued.
	Start sim.Time
	// Done is when the command's result was ready at the controller (or
	// the program completed, for writes).
	Done sim.Time
	// HostDone is when the last result byte crossed the host link; zero
	// unless the command shipped results.
	HostDone sim.Time
	// Err is the device error, if any. Failed commands consume no
	// modeled time beyond their issue instant.
	Err error
}

// end returns the command's completion instant.
func (r Result) end() sim.Time {
	if r.HostDone > r.Done {
		return r.HostDone
	}
	return r.Done
}

// Ticket tracks a submitted command. Wait blocks until the command has
// executed and returns its Result; it may be called from any goroutine,
// any number of times.
type Ticket struct {
	s *Scheduler
	// res is written exactly once, under s.mu, before done is set.
	res  Result
	done atomic.Bool
}

// Wait returns the command's result, dispatching the pending queue if the
// command has not executed yet. Commands execute only under the scheduler
// mutex and a dispatch drains the whole queue, so once the dispatch below
// returns, the ticket's batch has run.
func (t *Ticket) Wait() Result {
	if !t.done.Load() {
		t.s.mu.Lock()
		t.s.dispatchLocked()
		t.s.mu.Unlock()
	}
	return t.res
}

// QueueStats describes one command kind's queue.
type QueueStats struct {
	// Submitted counts commands accepted, Completed those executed,
	// Errors those that failed.
	Submitted, Completed, Errors int64
	// MaxDepth is the high-water mark of commands of this kind pending
	// at once.
	MaxDepth int
	// Busy is the summed per-command service time (completion minus
	// issue) — across queues it can exceed the makespan, which is what
	// overlapped execution looks like.
	Busy sim.Duration
}

// Stats is a snapshot of scheduler activity.
type Stats struct {
	// Queues indexes per-kind counters by Kind.
	Queues [numKinds]QueueStats
	// Batches counts dispatches; MaxBatch is the widest single batch.
	Batches  int64
	MaxBatch int
	// Horizon is the virtual clock after the last dispatched batch.
	Horizon sim.Time
	// Retries counts command re-executions after a transient device
	// fault; RetriesExhausted counts commands that still failed with a
	// transient fault after the last allowed attempt.
	Retries          int64
	RetriesExhausted int64
}

// The scheduler re-executes a command that fails with a transient device
// fault (flash.IsTransientFault). All waiting happens in simulated time:
// each retry re-issues the command at the previous issue instant plus the
// current backoff, so a transient plane outage costs virtual latency,
// never host-visible errors, unless it outlasts every attempt, in which
// case the transient fault surfaces to the caller. Three retries span
// roughly 6 ms of simulated time (200 µs, 1 ms, 5 ms): long enough to
// ride out the short plane outages fault plans script, short enough not
// to mask a dead plane.
const (
	retryAttempts   = 4 // executions, the first included
	retryBackoff    = 200 * sim.Microsecond
	retryMultiplier = 5 // backoff growth per retry
)

// Submitted totals accepted commands across queues.
func (s Stats) Submitted() int64 {
	var n int64
	for _, q := range s.Queues {
		n += q.Submitted
	}
	return n
}

// Completed totals executed commands across queues.
func (s Stats) Completed() int64 {
	var n int64
	for _, q := range s.Queues {
		n += q.Completed
	}
	return n
}

// BusyTime totals per-command service time across queues.
func (s Stats) BusyTime() sim.Duration {
	var d sim.Duration
	for _, q := range s.Queues {
		d += q.Busy
	}
	return d
}

// Utilization is total service time over the makespan: 1.0 means strictly
// serial execution; values above 1.0 measure how much command service
// overlapped in virtual time.
func (s Stats) Utilization() float64 {
	if s.Horizon <= 0 {
		return 0
	}
	return float64(s.BusyTime()) / float64(s.Horizon)
}

// Scheduler serializes access to an ssd.Device and batches concurrent
// commands onto shared issue instants. Safe for use from many goroutines.
type Scheduler struct {
	mu      sync.Mutex
	dev     *ssd.Device   // immutable after New
	now     sim.Time      // issue cursor for the next batch; guarded by mu
	pending []queued      // guarded by mu
	spare   []queued      // the last batch's emptied backing array; guarded by mu
	depth   [numKinds]int // pending commands per kind; guarded by mu
	stats   Stats         // guarded by mu
	tele    schedTele     // guarded by mu
	// What is attached to the device; the scheduler is its one owner.
	sink   *telemetry.Sink // guarded by mu
	faults *faults.Engine  // armed, or the last plan disarmed; guarded by mu
	// The arenas hold the pending commands' copies of LPNs, payload bytes
	// and page lists. Each dispatch resets them, so steady-state traffic
	// reuses one backing array per arena.
	lpnArena  []uint64 // guarded by mu
	byteArena []byte   // guarded by mu
	pageArena [][]byte // guarded by mu
}

// queued is one pending command and the ticket its result goes to. The
// command lives here, not on the ticket, so a ticket the caller holds
// pins no payload.
type queued struct {
	t   *Ticket
	cmd Command
}

// arenaKeep bounds, in bytes, the backing array a dispatch keeps per
// arena: one grown past it by a huge batch is dropped, not held.
const arenaKeep = 64 << 10

// schedTele holds the scheduler's telemetry handles; the zero value (all
// nil) is the disabled state and every call through it is a free no-op.
type schedTele struct {
	queueTracks [numKinds]*telemetry.Track
	depthGauges [numKinds]*telemetry.Gauge
	latency     [numKinds]*telemetry.Histogram
	batchTrack  *telemetry.Track
	retryTrack  *telemetry.Track
}

// SetTelemetry drains the queue and then attaches (or, with nil,
// detaches) a telemetry sink to the device stack (ssd.Device.SetTelemetry),
// whose lanes register first, the scheduler and any installed fault
// engine. Every command kind gets a queue lane (spans run from batch
// issue to command completion), a pending-depth gauge and a
// service-latency histogram; batches and retries get their own lanes.
// All numKinds lanes register eagerly so an exported trace shows one
// lane per queue even for kinds that saw no traffic. Counts stay in
// Stats; PublishMetrics writes them into the sink.
func (s *Scheduler) SetTelemetry(sink *telemetry.Sink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dispatchLocked()
	s.sink = sink
	s.dev.SetTelemetry(sink)
	tr := sink.Trace()
	for k := 0; k < numKinds; k++ {
		s.tele.queueTracks[k] = tr.Track("sched", "queue-"+kindNames[k])
		s.tele.depthGauges[k] = sink.Gauge("sched.queue." + kindNames[k] + ".depth")
		s.tele.latency[k] = sink.Histogram("sched.latency." + kindNames[k])
	}
	s.tele.batchTrack = tr.Track("sched", "batches")
	s.tele.retryTrack = tr.Track("sched", "retries")
	if s.faults != nil {
		s.faults.SetTelemetry(sink)
	}
}

// Telemetry returns the sink SetTelemetry attached, or nil.
func (s *Scheduler) Telemetry() *telemetry.Sink {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sink
}

// InstallFaultPlan drains the queue, compiles plan against the device
// geometry and arms it, replacing any previous plan and its counts; a
// plan that fails validation changes nothing. It reports into the sink.
func (s *Scheduler) InstallFaultPlan(plan faults.Plan) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dispatchLocked()
	eng, err := faults.NewEngine(plan, s.dev.Array().Geometry())
	if err != nil {
		return err
	}
	eng.SetTelemetry(s.sink)
	s.dev.SetFaultInjector(eng)
	s.faults = eng
	return nil
}

// ClearFaultPlan drains the queue and disarms fault injection. The
// engine stays, so Counters keeps reporting the disarmed plan's counts.
func (s *Scheduler) ClearFaultPlan() {
	s.Exclusive(func(dev *ssd.Device, _ sim.Time) { dev.SetFaultInjector(nil) })
}

// New wraps a device. The scheduler assumes sole ownership: bypassing it
// with direct device calls while commands are in flight races.
func New(dev *ssd.Device) *Scheduler {
	return &Scheduler{dev: dev}
}

// Submit enqueues a command. It never blocks on device work; the command
// executes when any ticket of the current queue is waited on, or at the
// next Flush/Exclusive. LPNs and payload buffers are copied. A command of
// unknown Kind is not queued: its ticket fails at once with
// ErrUnknownKind.
func (s *Scheduler) Submit(cmd Command) *Ticket {
	k := cmd.Kind
	t := &Ticket{s: s}
	if int(k) >= numKinds {
		t.res.Err = fmt.Errorf("%w: %d", ErrUnknownKind, k)
		t.done.Store(true)
		return t
	}
	s.mu.Lock()
	s.copyInLocked(&cmd)
	s.pending = append(s.pending, queued{t, cmd})
	s.stats.Queues[k].Submitted++
	s.depth[k]++
	if s.depth[k] > s.stats.Queues[k].MaxDepth {
		s.stats.Queues[k].MaxDepth = s.depth[k]
	}
	s.tele.depthGauges[k].Set(int64(s.depth[k]))
	s.mu.Unlock()
	return t
}

// copyInLocked points c's LPNs, Data and Pages at copies in the arenas.
// Each copy is capped at its length, so nothing appending to one can
// reach a neighbour's.
func (s *Scheduler) copyInLocked(c *Command) {
	if c.LPNs != nil {
		n := len(s.lpnArena)
		s.lpnArena = append(s.lpnArena, c.LPNs...)
		c.LPNs = s.lpnArena[n:len(s.lpnArena):len(s.lpnArena)]
	}
	c.Data = s.copyBytesLocked(c.Data)
	if c.Pages != nil {
		n := len(s.pageArena)
		for _, p := range c.Pages {
			s.pageArena = append(s.pageArena, s.copyBytesLocked(p))
		}
		c.Pages = s.pageArena[n:len(s.pageArena):len(s.pageArena)]
	}
}

func (s *Scheduler) copyBytesLocked(p []byte) []byte {
	if p == nil {
		return nil
	}
	n := len(s.byteArena)
	s.byteArena = append(s.byteArena, p...)
	return s.byteArena[n:len(s.byteArena):len(s.byteArena)]
}

// resetArenasLocked empties the arenas once their batch has executed,
// dropping any grown past arenaKeep bytes.
func (s *Scheduler) resetArenasLocked() {
	s.lpnArena = keepArena(s.lpnArena)
	s.byteArena = keepArena(s.byteArena)
	clear(s.pageArena)
	s.pageArena = keepArena(s.pageArena)
}

// keepArena empties an arena, or drops it when its backing array
// exceeds arenaKeep bytes.
func keepArena[T any](a []T) []T {
	var zero T
	if cap(a)*int(unsafe.Sizeof(zero)) > arenaKeep {
		return nil
	}
	return a[:0]
}

// dispatchLocked executes every pending command as one batch. All commands
// issue at the shared batch instant; the cursor then advances to the
// latest completion, so the following batch sees the device drained.
func (s *Scheduler) dispatchLocked() {
	if len(s.pending) == 0 {
		return
	}
	batch := s.pending
	s.pending = s.spare
	issue := s.now
	horizon := issue
	s.stats.Batches++
	if len(batch) > s.stats.MaxBatch {
		s.stats.MaxBatch = len(batch)
	}
	for i := range batch {
		t, c := batch[i].t, &batch[i].cmd
		k := c.Kind
		t.res = s.execRetryLocked(c, issue)
		s.depth[k]--
		s.stats.Queues[k].Completed++
		if t.res.Err != nil {
			s.stats.Queues[k].Errors++
		}
		if end := t.res.end(); end > horizon {
			horizon = end
		}
		s.stats.Queues[k].Busy += t.res.end().Sub(issue)
		s.tele.depthGauges[k].Set(int64(s.depth[k]))
		s.tele.latency[k].Observe(t.res.end().Sub(issue))
		s.tele.queueTracks[k].Span(kindNames[k], issue, t.res.end())
		t.done.Store(true)
	}
	clear(batch)
	s.spare = keepArena(batch)
	s.resetArenasLocked()
	s.now = horizon
	s.stats.Horizon = horizon
	s.tele.batchTrack.Span("batch", issue, horizon)
}

// execRetryLocked runs one command, re-issuing it after a simulated backoff
// while it keeps failing with a transient fault and attempts are left.
// Permanent faults (a dead plane, an exhausted device) surface
// immediately: only flash.IsTransientFault errors retry. The returned
// result's Start is the first issue instant, so service-time accounting
// includes the backoff the command sat out.
func (s *Scheduler) execRetryLocked(c *Command, issue sim.Time) Result {
	r := s.execLocked(c, issue)
	backoff := retryBackoff
	at := issue
	for attempt := 1; attempt < retryAttempts && flash.IsTransientFault(r.Err); attempt++ {
		retryAt := at.Add(backoff)
		s.stats.Retries++
		s.tele.retryTrack.Span("backoff-"+kindNames[c.Kind], at, retryAt)
		r = s.execLocked(c, retryAt)
		at = retryAt
		backoff *= retryMultiplier
	}
	if flash.IsTransientFault(r.Err) {
		s.stats.RetriesExhausted++
		s.tele.retryTrack.Instant("exhausted-"+kindNames[c.Kind], at)
	}
	r.Start = issue
	return r
}

// needLPNs refuses a command carrying fewer than n operand LPNs, so a
// malformed command fails on its own ticket instead of panicking with
// the scheduler locked.
func needLPNs(c *Command, n int) error {
	if len(c.LPNs) < n {
		return fmt.Errorf("sched: %v takes %d operands, got %d: %w", c.Kind, n, len(c.LPNs), ssd.ErrNeedOperands)
	}
	return nil
}

// execLocked runs one command against the device at the given issue time.
func (s *Scheduler) execLocked(c *Command, issue sim.Time) Result {
	r := Result{Start: issue, Done: issue}
	switch c.Kind {
	case KindBarrier:
		// No device work: completes the moment its batch issues.
	case KindWrite, KindWriteOperand, KindWritePair, KindWriteGroup,
		KindWriteOnPlane, KindWriteTriple, KindWriteMWSGroup:
		lpns, pages := c.LPNs, c.Pages
		if len(lpns) == 0 {
			lpns, pages = []uint64{c.LPN}, [][]byte{c.Data}
		}
		r.Done, r.Err = s.dev.WritePages(writeOps[c.Kind], c.Plane, lpns, pages, issue)
	case KindRead:
		if c.ToHost {
			r.Data, r.HostDone, r.Err = s.dev.ReadToHost(c.LPN, issue)
			r.Done = r.HostDone
		} else {
			r.Data, r.Done, r.Err = s.dev.Read(c.LPN, issue)
		}
	case KindBitwise:
		if r.Err = needLPNs(c, 2); r.Err != nil {
			break
		}
		br, err := s.dev.Bitwise(c.Op, c.LPNs[0], c.LPNs[1], c.Scheme, issue)
		s.deliver(&r, br, err, c.ToHost)
	case KindBitwiseTriple:
		if r.Err = needLPNs(c, 3); r.Err != nil {
			break
		}
		br, err := s.dev.BitwiseTriple(c.Op3, [3]uint64{c.LPNs[0], c.LPNs[1], c.LPNs[2]}, issue)
		s.deliver(&r, br, err, c.ToHost)
	case KindReduce:
		br, err := s.dev.Reduce(c.Op, c.LPNs, c.Scheme, issue)
		s.deliver(&r, br, err, c.ToHost)
	case KindFormula:
		fr, err := s.dev.ExecuteFormula(c.Batches, c.Scheme, issue)
		r.Pages, r.Err = fr.Pages, err
		if err == nil {
			r.Done, r.HostDone = fr.Done, fr.HostDone
		}
	case KindQuery:
		br, err := s.dev.ExecuteQueryOn(c.Query, c.LPNs, c.Scheme, issue)
		s.deliver(&r, br, err, c.ToHost)
	}
	return r
}

// deliver hands one computation's outcome to its result: on success it
// ships the result page to the host first when toHost asks for it, then
// takes the completion times. A failed computation keeps r's times at
// issue.
func (s *Scheduler) deliver(r *Result, br ssd.BitwiseResult, err error, toHost bool) {
	if err == nil && toHost {
		s.dev.ShipToHost(&br)
	}
	r.Data, r.Err = br.Data, err
	if err == nil {
		r.Done, r.HostDone = br.Done, br.HostDone
	}
}

// Flush dispatches every pending command and returns the virtual clock
// after they complete — a drain barrier for the whole queue.
func (s *Scheduler) Flush() sim.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dispatchLocked()
	return s.now
}

// Now returns the current issue cursor without dispatching.
func (s *Scheduler) Now() sim.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Pending returns the number of submitted commands not yet dispatched —
// the queue depth a load balancer steers around.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Stats returns a snapshot of scheduler counters. It does not dispatch;
// pending commands are reflected in Submitted but not Completed.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close drains every pending command and then closes the underlying
// device, flushing its persistence journal (a no-op for in-memory
// devices). The scheduler must not be used after Close.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dispatchLocked()
	return s.dev.Close()
}

// Exclusive drains the queue and then runs fn with the mutex held,
// handing it the raw device. Use it for snapshots and maintenance
// (statistics, trims) that must not interleave with commands. fn must
// not call back into the scheduler.
func (s *Scheduler) Exclusive(fn func(dev *ssd.Device, now sim.Time)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dispatchLocked()
	fn(s.dev, s.now)
}
