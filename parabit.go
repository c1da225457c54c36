// Package parabit is a full-system reproduction of "ParaBit: Processing
// Parallel Bitwise Operations in NAND Flash Memory based SSDs" (Gao et
// al., MICRO '21): in-flash bulk bitwise computation performed by
// re-sequencing the MLC sense-amplifier latching circuit during reads.
//
// The package offers three layers:
//
//   - Device: a functional, cycle-accounted simulated SSD. Write operand
//     data with the ParaBit-friendly layouts (co-located pairs, aligned
//     LSB groups, block-colocated groups), then execute bitwise
//     operations, reductions and whole formulas under any of four
//     schemes: the paper's three and the Flash-Cosmos multi-wordline
//     extension. Every result is bit-exact and carries the modeled
//     latency.
//   - Analytic planning: PlanReduce and the case-study planners compute
//     paper-scale execution times (hundreds of GB) from the same cost
//     model the functional device implements.
//   - Experiments: RunExperiment regenerates any table or figure of the
//     paper's evaluation as a formatted text table.
//
// A device's counters have one reader and one exporter: Device.Stats
// returns them as a snapshot taken once the command queue drains, and
// WriteMetrics (after EnableTelemetry) exports them with the live
// telemetry series.
//
// The quickstart in examples/quickstart shows the minimal end-to-end use.
package parabit

import (
	"errors"
	"fmt"
	"io"
	"time"

	"parabit/internal/faults"
	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/persist"
	"parabit/internal/plan"
	"parabit/internal/reliability"
	"parabit/internal/sched"
	"parabit/internal/sim"
	"parabit/internal/ssd"
	"parabit/internal/telemetry"
)

// Op is a bitwise operation ParaBit can execute in flash.
type Op uint8

// The seven operations of the paper's Table 1. NotFirst and NotSecond are
// the two halves of the NOT row: they invert the first or second operand
// respectively (the LSB- and MSB-resident bit in the co-located layout).
const (
	And Op = iota
	Or
	Xnor
	Nand
	Nor
	Xor
	NotFirst
	NotSecond
)

// Ops lists every operation.
var Ops = []Op{And, Or, Xnor, Nand, Nor, Xor, NotFirst, NotSecond}

func (o Op) String() string { return o.latch().String() }

func (o Op) latch() latch.Op {
	if o > NotSecond {
		panic(fmt.Sprintf("parabit: invalid op %d", uint8(o)))
	}
	return latch.Op(o)
}

// Eval computes the operation on two bits (the golden semantics).
func (o Op) Eval(first, second bool) bool { return o.latch().Eval(first, second) }

// Scheme selects the execution strategy (paper §5.2).
type Scheme uint8

const (
	// PreAllocated is the paper's "ParaBit": operands were written
	// co-located into shared MLC cells, so operations sense directly.
	PreAllocated Scheme = iota
	// Reallocated is "ParaBit-ReAlloc": operands are gathered into
	// shared cells immediately before each operation.
	Reallocated
	// LocationFree is "ParaBit-LocFree": operands in aligned LSB pages
	// are sensed through the extended latching circuit, no data movement.
	LocationFree
	// FlashCosmos is the Flash-Cosmos extension: N-operand AND/OR
	// reductions over block-colocated, ESP-programmed operands (the
	// WriteOperandMWSGroup layout) execute in one multi-wordline sense,
	// falling back to pairwise LocationFree execution when colocation, the
	// per-sense operand cap, or the op's algebra rules the single sense
	// out.
	FlashCosmos
)

// Schemes lists every scheme, in declaration order; it is derived from
// the one scheme registry in internal/ssd, so test matrices and sweeps
// ranging over it extend automatically when a scheme is added.
var Schemes = func() []Scheme {
	out := make([]Scheme, len(ssd.Schemes))
	for i, s := range ssd.Schemes {
		out[i] = Scheme(s)
	}
	return out
}()

func (s Scheme) String() string { return s.ssd().String() }

// ParseScheme resolves a scheme by its String() name ("ParaBit",
// "ParaBit-ReAlloc", "ParaBit-LocFree", "Flash-Cosmos") or its short
// alias ("prealloc", "realloc", "locfree", "flashcosmos", "fc"),
// case-insensitively.
func ParseScheme(name string) (Scheme, error) {
	s, err := ssd.ParseScheme(name)
	if err != nil {
		return 0, err
	}
	return Scheme(s), nil
}

func (s Scheme) ssd() ssd.Scheme {
	if int(s) >= len(ssd.Schemes) {
		panic(fmt.Sprintf("parabit: invalid scheme %d", uint8(s)))
	}
	return ssd.Scheme(s)
}

// Result is the outcome of an in-flash operation: the bit-exact result
// data and the modeled device latency from issue to result-in-buffer.
type Result struct {
	Data    []byte
	Latency time.Duration
	// HostLatency additionally covers shipping the result to the host;
	// zero unless the call ships results.
	HostLatency time.Duration
}

// Device is the public simulated ParaBit SSD. It is safe for concurrent
// use: every operation goes through a command scheduler that serializes
// device mutations while letting commands submitted concurrently share a
// virtual issue instant, so the simulated plane/channel parallelism
// applies across callers. See Flush for the drain barrier and Stats for
// the counters of every layer.
type Device struct {
	// dev is the raw single-threaded device; it must only be touched
	// through sched, which also owns its telemetry sink and fault plan.
	dev   *ssd.Device
	sched *sched.Scheduler
}

// Option configures a Device.
type Option func(*config)

type config struct {
	cfg        ssd.Config
	noise      *reliability.Model
	wantECC    bool
	persistDir string
	snapEvery  int
}

// WithPaperGeometry selects the paper's 512 GB, 1024-plane SSD (§5.1).
// This is the default.
func WithPaperGeometry() Option {
	return func(c *config) { c.cfg.Geometry = flash.Default() }
}

// WithSmallGeometry selects an 8 MB functional-test geometry: same
// behaviour, tiny footprint. Recommended for examples and tests that
// write real data.
func WithSmallGeometry() Option {
	return func(c *config) { c.cfg.Geometry = flash.Small() }
}

// WithScrambling enables or disables the data scrambler on the normal
// write path (operand writes always bypass it; §4.3.2).
func WithScrambling(on bool) Option {
	return func(c *config) { c.cfg.Scramble = on }
}

// WithErrorModel installs the paper-calibrated read-noise model (§5.8):
// ParaBit results on cycled blocks acquire raw bit errors that grow with
// P/E count and sensing count. seed makes runs reproducible.
func WithErrorModel(seed int64) Option {
	return func(c *config) { c.noise = reliability.NewModel(seed) }
}

// WithQueryCache bounds the controller-DRAM result cache the query
// planner keeps hot intermediates in, in bytes. Zero keeps the default
// (64 pages); negative disables caching.
func WithQueryCache(bytes int64) Option {
	return func(c *config) { c.cfg.QueryCacheBytes = bytes }
}

// WithECC installs a SEC-DED codec over 512-byte sectors (or the page
// size, when pages are smaller) on the baseline read path, so ordinary
// reads experience the raw errors of the noise model — which the codec
// then corrects. ParaBit results still bypass correction (§4.4.3): the
// asymmetry the paper's reliability study measures. Requires
// WithErrorModel for the errors to exist. The codec is part of a
// persistent store's configuration: a store created with WithECC reads
// through it whenever it is opened with an error model.
func WithECC() Option {
	return func(c *config) { c.wantECC = true }
}

// ErrPowerCut reports an operation refused or interrupted by an
// injected power cut (the "power-cut" fault-plan rule): the device is
// dead and every call fails until the store is reopened with Open.
// Match with errors.Is; operations the cut caught mid-flash-program
// instead surface a flash fault error of kind power-cut.
var ErrPowerCut = persist.ErrPowerCut

// WithPersistence backs the device with an on-disk journal+snapshot
// store in dir (created if absent; must not already hold a store when
// used with NewDevice). Every acknowledged write is journaled before its
// call returns, so it survives a process crash; Open recovers the device
// from dir after such a crash or a clean Close. Journal appends are not
// fsynced: a host crash or power loss can drop the appends still in the
// operating system's page cache. See internal/persist for the on-disk
// formats.
func WithPersistence(dir string) Option {
	return func(c *config) { c.persistDir = dir }
}

// WithSnapshotEvery sets the journal compaction threshold: a snapshot
// replaces the journal after n committed records. Zero keeps the
// default; negative disables periodic snapshots (the journal then only
// compacts on Close). Meaningful only with WithPersistence.
func WithSnapshotEvery(n int) Option {
	return func(c *config) { c.snapEvery = n }
}

// NewDevice builds a simulated ParaBit SSD.
func NewDevice(opts ...Option) (*Device, error) {
	c := config{cfg: ssd.DefaultConfig()}
	c.cfg.Geometry = flash.Small() // default to the cheap geometry
	for _, o := range opts {
		o(&c)
	}
	if c.wantECC {
		sector := 512
		if c.cfg.Geometry.PageSize < sector {
			sector = c.cfg.Geometry.PageSize
		}
		c.cfg.ECCSectorBytes = sector
	}
	var dev *ssd.Device
	var err error
	if c.persistDir != "" {
		dev, err = ssd.Create(c.persistDir, c.cfg, c.snapEvery)
	} else {
		dev, err = ssd.New(c.cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := c.finish(dev); err != nil {
		return nil, err
	}
	return &Device{dev: dev, sched: sched.New(dev)}, nil
}

// finish applies the post-construction options shared by NewDevice and
// Open: the read-noise model, which a device with an ECC codec also
// applies to its baseline reads. Open refuses WithECC for a store
// created without a codec.
func (c *config) finish(dev *ssd.Device) error {
	if c.wantECC && dev.Config().ECCSectorBytes == 0 {
		return errors.New("parabit: WithECC needs a store created with WithECC")
	}
	if c.noise != nil {
		dev.Array().SetCorruptor(c.noise)
	}
	return nil
}

// Recovery summarizes one mount of a persistent device: how much
// journal replay it took to rebuild the crash-time state.
type Recovery struct {
	// ReplayedRecords is the number of committed journal records
	// re-executed on top of the snapshot.
	ReplayedRecords int64
	// SkippedIntents counts journaled intents without a commit record —
	// writes in flight at the crash, never acknowledged, not recovered.
	SkippedIntents int64
	// TornBytes is the length of the incomplete journal tail truncated
	// at the mount (0 after a clean shutdown).
	TornBytes int64
	// ReplayTime is the simulated time the replayed operations spanned.
	ReplayTime time.Duration
}

// Open recovers a persistent device from a directory written by a
// device built with WithPersistence: the last snapshot is loaded, the
// journal tail is replayed (a torn final record is truncated, exactly
// as power-fail-interrupted hardware would), and the FTL's invariants
// are audited before the device accepts commands. Geometry and layout
// come from the on-disk store; pass only behavioural options
// (WithErrorModel, WithECC, WithQueryCache is ignored in favour of the
// stored config). Every write acknowledged by the previous incarnation
// is readable, byte-identical; unacknowledged writes are absent.
func Open(dir string, opts ...Option) (*Device, Recovery, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	dev, info, err := ssd.Open(dir, c.snapEvery)
	if err != nil {
		return nil, Recovery{}, err
	}
	if err := c.finish(dev); err != nil {
		return nil, Recovery{}, err
	}
	rec := Recovery{
		ReplayedRecords: info.ReplayedRecords,
		SkippedIntents:  info.SkippedIntents,
		TornBytes:       info.TornBytes,
		ReplayTime:      info.RecoveryTime.Std(),
	}
	return &Device{dev: dev, sched: sched.New(dev)}, rec, nil
}

// Close drains the command queue and shuts the device down. On a
// persistent device it takes a final compaction snapshot, so the next
// Open replays nothing; in-memory devices just drain. The device must
// not be used after Close.
func (d *Device) Close() error { return d.sched.Close() }

// PageSize returns the flash page size in bytes; operand buffers must be
// exactly one page.
func (d *Device) PageSize() int { return d.dev.PageSize() }

// UserPages returns the logical pages addressable by the host.
func (d *Device) UserPages() uint64 { return d.dev.UserPages() }

// wait turns a ticket's outcome into the public Result shape.
func wait(t *sched.Ticket) (Result, error) {
	r := t.Wait()
	if r.Err != nil {
		return Result{}, r.Err
	}
	out := Result{Data: r.Data, Latency: r.Done.Sub(r.Start).Std()}
	if r.HostDone > 0 {
		out.HostLatency = r.HostDone.Sub(r.Start).Std()
	}
	return out, nil
}

// Write stores a page of ordinary (scrambled) data.
func (d *Device) Write(lpn uint64, data []byte) error {
	_, err := d.WriteAsync(lpn, data).Wait()
	return err
}

// WriteOperand stores a bitwise operand page (unscrambled, normal
// placement). Usable by Reallocated-scheme operations.
func (d *Device) WriteOperand(lpn uint64, data []byte) error {
	_, err := d.WriteOperandAsync(lpn, data).Wait()
	return err
}

// WriteOperandPair stores two operand pages co-located in one wordline —
// the PreAllocated layout. first lands in the LSB page, second in MSB.
func (d *Device) WriteOperandPair(first, second uint64, firstData, secondData []byte) error {
	_, err := wait(d.sched.Submit(sched.Command{
		Kind:  sched.KindWritePair,
		LPNs:  []uint64{first, second},
		Pages: [][]byte{firstData, secondData},
	}))
	return err
}

// WriteOperandGroup stores operand pages in aligned LSB slots of one
// plane — the LocationFree layout, required for chained reductions.
func (d *Device) WriteOperandGroup(lpns []uint64, data [][]byte) error {
	_, err := wait(d.sched.Submit(sched.Command{
		Kind: sched.KindWriteGroup, LPNs: lpns, Pages: data,
	}))
	return err
}

// WriteOperandMWSGroup stores operand pages in LSB slots of one block,
// ESP-programmed — the FlashCosmos layout whose AND/OR reduction is a
// single multi-wordline sense. The group must fit one block.
func (d *Device) WriteOperandMWSGroup(lpns []uint64, data [][]byte) error {
	_, err := wait(d.sched.Submit(sched.Command{
		Kind: sched.KindWriteMWSGroup, LPNs: lpns, Pages: data,
	}))
	return err
}

// Read returns a logical page's content (descrambled).
func (d *Device) Read(lpn uint64) ([]byte, error) {
	r, err := d.ReadAsync(lpn).Wait()
	return r.Data, err
}

// Bitwise executes one two-operand operation in flash under the scheme
// and returns the result with its modeled latency.
func (d *Device) Bitwise(op Op, first, second uint64, scheme Scheme) (Result, error) {
	return d.BitwiseAsync(op, first, second, scheme).Wait()
}

// Reduce folds operand pages with an associative operation (And, Or or
// Xor), using the scheme's chained execution (§4.2, §5.3).
func (d *Device) Reduce(op Op, lpns []uint64, scheme Scheme) (Result, error) {
	return d.ReduceAsync(op, lpns, scheme).Wait()
}

// BitwiseToHost executes Bitwise and ships the result over the host
// link, filling HostLatency.
func (d *Device) BitwiseToHost(op Op, first, second uint64, scheme Scheme) (Result, error) {
	return d.bitwise(op, first, second, scheme, true).Wait()
}

// bitwise submits one two-operand operation.
func (d *Device) bitwise(op Op, first, second uint64, scheme Scheme, toHost bool) *Pending {
	return &Pending{t: d.sched.Submit(sched.Command{
		Kind:   sched.KindBitwise,
		LPNs:   []uint64{first, second},
		Op:     op.latch(),
		Scheme: scheme.ssd(),
		ToHost: toHost,
	})}
}

// Query is a bitmap-query expression tree over operand LPNs. Build one
// with QueryLPN and the combinators, or parse the textual form
// ("(1 & 2 & 3) | !(4 ^ 5)") with ParseQuery, then execute it with
// Device.Query. The planner normalizes the tree, fuses associative
// chains into single multi-operand latch programs, shares structurally
// equal sub-queries, and caches hot intermediate results in controller
// DRAM. The zero Query is invalid.
type Query struct{ e *plan.Expr }

// QueryLPN is the leaf query: the content of one operand page.
func QueryLPN(lpn uint64) Query { return Query{plan.Leaf(lpn)} }

// QueryAnd is the conjunction of two or more sub-queries.
func QueryAnd(qs ...Query) Query { return Query{plan.And(exprs(qs)...)} }

// QueryOr is the disjunction of two or more sub-queries.
func QueryOr(qs ...Query) Query { return Query{plan.Or(exprs(qs)...)} }

// QueryXor is the exclusive-or of two or more sub-queries.
func QueryXor(qs ...Query) Query { return Query{plan.Xor(exprs(qs)...)} }

// QueryXnor is the equivalence of exactly two sub-queries.
func QueryXnor(a, b Query) Query { return Query{plan.Xnor(a.e, b.e)} }

// QueryNand is the negated conjunction of exactly two sub-queries.
func QueryNand(a, b Query) Query { return Query{plan.Nand(a.e, b.e)} }

// QueryNor is the negated disjunction of exactly two sub-queries.
func QueryNor(a, b Query) Query { return Query{plan.Nor(a.e, b.e)} }

// QueryNot negates a sub-query. The planner folds negations into the
// complement operations (NAND, NOR, XNOR) where the circuit has them.
func QueryNot(q Query) Query { return Query{plan.Not(q.e)} }

// ParseQuery parses the textual query language: decimal LPNs as leaves;
// operators !, &, |, ^ plus the negated forms ~&, ~|, ~^; parentheses.
// Precedence is ! over & over ^ over |, all left-associative.
func ParseQuery(s string) (Query, error) {
	e, err := plan.Parse(s)
	if err != nil {
		return Query{}, err
	}
	return Query{e}, nil
}

// String renders the query in the ParseQuery syntax.
func (q Query) String() string {
	if q.e == nil {
		return "<invalid query>"
	}
	return q.e.String()
}

func exprs(qs []Query) []*plan.Expr {
	es := make([]*plan.Expr, len(qs))
	for i, q := range qs {
		es[i] = q.e
	}
	return es
}

var errInvalidQuery = errors.New("parabit: invalid (zero) Query")

// Query plans and executes a bitmap-query expression under the scheme:
// associative chains fuse into single multi-operand latch programs,
// repeated sub-queries compute once, and intermediate results are served
// from the controller-DRAM cache while their operand pages are unchanged.
// The result is bit-exact with evaluating the expression over the current
// page contents.
func (d *Device) Query(q Query, scheme Scheme) (Result, error) {
	return d.QueryAsync(q, scheme).Wait()
}

// QueryToHost executes Query and ships the result over the host link,
// filling HostLatency.
func (d *Device) QueryToHost(q Query, scheme Scheme) (Result, error) {
	return d.query(q, scheme, true).Wait()
}

// query submits q, or refuses the zero Query without reaching the device.
func (d *Device) query(q Query, scheme Scheme, toHost bool) *Pending {
	if q.e == nil {
		return &Pending{err: errInvalidQuery}
	}
	return &Pending{t: d.sched.Submit(sched.Command{
		Kind:   sched.KindQuery,
		Query:  q.e,
		Scheme: scheme.ssd(),
		ToHost: toHost,
	})}
}

// Pending is a handle to a submitted but not yet awaited operation.
// Submitting several operations before waiting on any of them queues them
// into one dispatch batch: they share a virtual issue instant, so
// independent page operations overlap on the device's planes exactly as
// outstanding commands do in a real SSD's queues. A call refused before
// it reaches the device carries only its error.
type Pending struct {
	t   *sched.Ticket
	err error
}

// Wait blocks until the operation executes and returns its result. It may
// be called from any goroutine, any number of times.
func (p *Pending) Wait() (Result, error) {
	if p.err != nil {
		return Result{}, p.err
	}
	return wait(p.t)
}

// WriteAsync queues a Write without waiting for it.
func (d *Device) WriteAsync(lpn uint64, data []byte) *Pending {
	return &Pending{t: d.sched.Submit(sched.Command{Kind: sched.KindWrite, LPN: lpn, Data: data})}
}

// WriteOperandAsync queues a WriteOperand without waiting for it.
func (d *Device) WriteOperandAsync(lpn uint64, data []byte) *Pending {
	return &Pending{t: d.sched.Submit(sched.Command{Kind: sched.KindWriteOperand, LPN: lpn, Data: data})}
}

// ReadAsync queues a Read; the page content arrives in Result.Data.
func (d *Device) ReadAsync(lpn uint64) *Pending {
	return &Pending{t: d.sched.Submit(sched.Command{Kind: sched.KindRead, LPN: lpn})}
}

// BitwiseAsync queues a Bitwise without waiting for it.
func (d *Device) BitwiseAsync(op Op, first, second uint64, scheme Scheme) *Pending {
	return d.bitwise(op, first, second, scheme, false)
}

// QueryAsync queues a Query without waiting for it.
func (d *Device) QueryAsync(q Query, scheme Scheme) *Pending { return d.query(q, scheme, false) }

var errReduceOp = errors.New("parabit: Reduce requires And, Or or Xor")

// ReduceAsync queues a Reduce without waiting for it.
func (d *Device) ReduceAsync(op Op, lpns []uint64, scheme Scheme) *Pending {
	switch op {
	case And, Or, Xor:
	default:
		return &Pending{err: errReduceOp}
	}
	return &Pending{t: d.sched.Submit(sched.Command{
		Kind:   sched.KindReduce,
		LPNs:   lpns,
		Op:     op.latch(),
		Scheme: scheme.ssd(),
	})}
}

// Flush drains the scheduler: every command submitted so far (from any
// goroutine) executes, and the virtual clock advances past the last of
// them. The time all of them completed is reflected by Elapsed.
func (d *Device) Flush() { d.sched.Flush() }

// CheckInvariants drains the command queue and audits the FTL's internal
// bookkeeping: every block accounted exactly once across active, full,
// free, reallocation-pool and retired-bad lists, and valid-page counts
// consistent with the mapping. It returns the first violation found, or
// nil. Chaos and fault-injection tests call it after hostile workloads to
// prove degradation never corrupted the translation layer.
func (d *Device) CheckInvariants() error {
	var err error
	d.sched.Exclusive(func(dev *ssd.Device, _ sim.Time) { err = dev.FTL().CheckInvariants() })
	return err
}

// InstallFaultPlan parses a JSON fault plan (see internal/faults for the
// schema: seeded plane outages, stuck blocks, program/erase failure
// rates, latency jitter) and arms it on the device. Faults inject
// deterministically: the same plan, seed and workload reproduce the same
// failures. The FTL absorbs what a real controller would (bad-block
// retirement, write re-steering) and the scheduler retries transient
// outages with simulated-time backoff; only unrecoverable failures
// surface to callers. Installing a plan replaces any previous one and
// its counts; the queue drains first.
func (d *Device) InstallFaultPlan(data []byte) error { return d.arm(faults.ParsePlan(data)) }

// InstallFaultPlanFile is InstallFaultPlan for a plan file on disk.
func (d *Device) InstallFaultPlanFile(path string) error { return d.arm(faults.LoadPlan(path)) }

// arm installs a decoded plan, or returns the error decoding it.
func (d *Device) arm(plan faults.Plan, err error) error {
	if err != nil {
		return err
	}
	return d.sched.InstallFaultPlan(plan)
}

// ClearFaultPlan disarms fault injection. Damage already done (retired
// blocks, surfaced errors) persists, and Stats keeps reporting the
// disarmed plan's injection counts in Faults; only future injections
// stop.
func (d *Device) ClearFaultPlan() { d.sched.ClearFaultPlan() }

// EnableTelemetry attaches a fresh telemetry sink to every layer of the
// device: scheduler queues, controller bitwise paths, FTL maintenance,
// plane/channel occupancy, the host link and any fault plan. With trace
// true the sink also records spans for export as Chrome trace-event JSON
// (WriteTrace); metrics (counters, gauges, latency histograms) are always
// on. The counts the layers keep in their Stats reach the sink when
// WriteMetrics publishes them. Safe to call on a device with in-flight
// commands — it drains the queue first.
func (d *Device) EnableTelemetry(trace bool) *telemetry.Sink {
	sink := telemetry.New()
	if trace {
		sink.EnableTrace()
	}
	d.sched.SetTelemetry(sink)
	return sink
}

// Telemetry returns the sink attached by EnableTelemetry, or nil.
func (d *Device) Telemetry() *telemetry.Sink { return d.sched.Telemetry() }

// WriteTrace exports the recorded trace as Chrome trace-event JSON (open
// in chrome://tracing or ui.perfetto.dev). Valid, possibly empty, output
// even when telemetry or tracing is disabled.
func (d *Device) WriteTrace(w io.Writer) error {
	d.Flush()
	return d.sched.Telemetry().WriteTrace(w)
}

// WriteMetrics drains the command queue and writes the expvar-style
// metrics summary. The counts every layer keeps in its Stats (scheduler,
// controller, FTL, flash, persistence and the fault engine) are
// published into the sink first, so they read as of this call; the
// live counters, gauges and histograms read as they stand. No output
// when telemetry is disabled.
func (d *Device) WriteMetrics(w io.Writer) {
	d.Flush()
	d.sched.PublishMetrics()
	d.sched.Telemetry().WriteMetrics(w)
}

// Stats is one snapshot of a device's counters: the scheduler's and those
// each layer keeps in its own Stats (controller Op, planner Query, FTL,
// Flash, on a persistent device Persist, and the fault engine's
// injection counts in Faults, zero when no plan was ever installed),
// read together in one hold of the scheduler lock once the queue has
// drained. Read each count at its layer's path: st.Flash.SROs,
// st.FTL.WriteAmplification(), st.Sched.Utilization(),
// st.Query.Cache.Hits, st.Faults.Faults().
type Stats = sched.Counters

// Stats drains the command queue and returns the device's counters, so
// they reflect every submitted command.
func (d *Device) Stats() Stats { return d.sched.Counters() }

// Elapsed returns the device's virtual clock: total modeled time consumed
// by the operations completed so far. Commands submitted but not yet
// waited on or flushed are not included.
func (d *Device) Elapsed() time.Duration { return sim.Duration(d.sched.Now()).Std() }
