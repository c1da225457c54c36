package ssd

import (
	"errors"
	"fmt"

	"parabit/internal/ecc"
	"parabit/internal/flash"
	"parabit/internal/ftl"
	"parabit/internal/interconnect"
	"parabit/internal/latch"
	"parabit/internal/persist"
	"parabit/internal/plan"
	"parabit/internal/sim"
)

// Device errors.
var (
	// ErrNotCoLocated reports a pre-allocation-scheme operation whose
	// operands do not share a wordline.
	ErrNotCoLocated = errors.New("ssd: operands not co-located")
	// ErrNeedOperands reports a reduction with no operands. (A
	// single-operand reduction is legal: it resolves to a plain read.)
	ErrNeedOperands = errors.New("ssd: reduction needs at least one operand")
	// ErrScrambled reports an operation that can only sense its operands
	// in place, a TLC triple, finding one stored scrambled: sensing it
	// would compute on whitened bits (§4.3.2).
	ErrScrambled = errors.New("ssd: operand stored scrambled")
)

// Device is the simulated ParaBit SSD.
type Device struct {
	cfg   Config
	array *flash.Array
	ftl   *ftl.FTL
	host  *interconnect.Link
	// plain tracks LPNs stored without scrambling (operand pages).
	plain plainSet
	// lowInternal starts the controller-reserved top of the logical
	// space; a reallocation programs its pair at the top two LPNs.
	lowInternal uint64
	stats       OpStats
	tele        devTele
	// qcache is the query planner's controller-DRAM result cache (nil
	// when disabled); qstats counts planner activity.
	qcache *plan.Cache
	qstats QueryStats
	// qplan compiles every query into scratch it reuses, so a plan lives
	// until the next query; qres holds the running query's step results.
	qplan plan.Compiler
	qres  []BitwiseResult
	// store is the crash-consistent on-disk backend (nil on a volatile
	// device): host writes are journaled before they are acknowledged and
	// the journal compacts into snapshots. See Create/Open/Close.
	store *persist.Store
	// cfgJSON is the configuration every snapshot carries, marshaled
	// once when the store is created or mounted; refs holds the journal
	// references of the write being journaled, and tally the store's
	// census a snapshot reports them to. All stay empty on a volatile
	// device.
	cfgJSON []byte
	refs    []flash.PageRef
	tally   liveTally
	// red is the working memory the reduction paths reuse across calls.
	red reduceScratch
}

// OpStats counts controller-level ParaBit activity.
type OpStats struct {
	BitwiseOps     int64 // two-operand operations executed
	Reallocations  int64 // operand reallocations performed
	ReallocPages   int64 // pages written by reallocation
	Fallbacks      int64 // scheme preconditions unmet, a degraded path ran
	ResultBytes    int64 // bytes shipped to the host: results and read pages
	DescrambledOps int64 // operand reads that needed descrambling
}

// New builds a device from the configuration.
func New(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	array := flash.NewArray(cfg.Geometry, cfg.Timing)
	if cfg.ECCSectorBytes > 0 {
		codec, err := ecc.NewCodec(cfg.Geometry.PageSize, cfg.ECCSectorBytes)
		if err != nil {
			return nil, err
		}
		array.SetECC(codec)
	}
	f := ftl.New(array, cfg.FTL)
	logical := uint64(f.LogicalPages())
	// The top eighth of the logical space is reserved for the
	// controller's reallocation targets.
	d := &Device{
		cfg:         cfg,
		array:       array,
		ftl:         f,
		host:        cfg.hostLink(),
		plain:       newPlainSet(logical),
		lowInternal: logical - logical/8,
	}
	if bytes := cfg.queryCacheBytes(); bytes > 0 {
		d.qcache = plan.NewCache(bytes)
	}
	return d, nil
}

// MustNew is New for configurations known valid at compile time.
func MustNew(cfg Config) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Array exposes the flash array (for noise models and statistics).
func (d *Device) Array() *flash.Array { return d.array }

// FTL exposes the translation layer (for endurance accounting).
func (d *Device) FTL() *ftl.FTL { return d.ftl }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns controller-level counters.
func (d *Device) Stats() OpStats { return d.stats }

// PageSize returns the flash page size.
func (d *Device) PageSize() int { return d.cfg.Geometry.PageSize }

// UserPages returns the number of logical pages available to the host
// (excluding the controller-reserved range).
func (d *Device) UserPages() uint64 { return d.lowInternal }

// ReclaimInternal does nothing: a reallocation trims its own pages once
// its sense returns, so no internal page outlives its operation. It
// stays for callers written when reallocated pages had to be reclaimed.
func (d *Device) ReclaimInternal() {}

func (d *Device) checkUserLPN(lpn uint64) error {
	if lpn >= d.lowInternal {
		return fmt.Errorf("ssd: lpn %d in controller-reserved range [%d,%d)",
			lpn, d.lowInternal, d.ftl.LogicalPages())
	}
	return nil
}

// writeOps maps each journaled write op to the FTL layout its pages take
// and whether they are scrambled: only the normal host data path is;
// operand pages never are (§4.3.2).
var writeOps = [...]struct {
	layout    ftl.Layout
	scrambled bool
}{
	persist.OpWrite:         {scrambled: true},
	persist.OpWriteOperand:  {},
	persist.OpWritePair:     {layout: ftl.Layout{Shape: ftl.Shared}},
	persist.OpWriteLSBPair:  {layout: ftl.Layout{Shape: ftl.LSBOnly}},
	persist.OpWriteLSBGroup: {layout: ftl.Layout{Shape: ftl.LSBOnly}},
	persist.OpWriteMWSGroup: {layout: ftl.Layout{Shape: ftl.LSBOnly, OneBlock: true}},
	persist.OpWriteOnPlane:  {layout: ftl.Layout{Shape: ftl.LSBOnly, Fixed: true}},
	persist.OpWriteTriple:   {layout: ftl.Layout{Shape: ftl.Shared}},
}

// WritePages stores pages at lpns in the layout op names (see writeOps)
// and journals the write on a persistent device. lpns must have the
// length op takes (persist.Record.ShapeOK). plane is the linear plane
// index, modulo the plane count, that OpWriteOnPlane pins its page to;
// other ops ignore it. Scrambled ops whiten each page with its LPN's
// keystream; the journal records the pre-scramble bytes and replay
// re-derives the keystream.
func (d *Device) WritePages(op persist.Op, plane int, lpns []uint64, pages [][]byte, at sim.Time) (sim.Time, error) {
	rec := persist.Record{Op: op, LPNs: lpns, Pages: pages}
	if op == persist.OpWriteOnPlane {
		rec.Plane = int64(plane)
	}
	return d.journaled(rec, at)
}

// WriteOperand stores a bitwise operand page: never scrambled (§4.3.2),
// normal striped placement.
func (d *Device) WriteOperand(lpn uint64, data []byte, at sim.Time) (sim.Time, error) {
	return d.WritePages(persist.OpWriteOperand, 0, []uint64{lpn}, [][]byte{data}, at)
}

// WriteOperandLSBGroup stores k operand pages in LSB pages of a single
// plane, the layout a chained location-free reduction consumes in one
// operation. Unscrambled.
func (d *Device) WriteOperandLSBGroup(lpns []uint64, data [][]byte, at sim.Time) (sim.Time, error) {
	return d.WritePages(persist.OpWriteLSBGroup, 0, lpns, data, at)
}

// BitwiseTriple executes a three-operand operation over a co-located TLC
// triple. All three logical pages must share a wordline and be stored
// unscrambled: there is no TLC reallocation path, so a scrambled operand
// is refused with ErrScrambled.
func (d *Device) BitwiseTriple(op latch.TLCOp3, lpns [3]uint64, at sim.Time) (BitwiseResult, error) {
	var wl flash.WordlineAddr
	for i, lpn := range lpns {
		addr, ok := d.ftl.Lookup(lpn)
		if !ok {
			return BitwiseResult{}, fmt.Errorf("ssd: operand %d: %w", lpn, ftl.ErrUnmapped)
		}
		if d.scrambled(lpn) {
			return BitwiseResult{}, fmt.Errorf("%w: operand %d", ErrScrambled, lpn)
		}
		if i == 0 {
			wl = addr.WordlineAddr
		} else if addr.WordlineAddr != wl {
			return BitwiseResult{}, fmt.Errorf("%w: triple operands span wordlines", ErrNotCoLocated)
		}
	}
	res, err := d.array.Sense(flash.Sense{Kind: latch.SenseTLC, Op3: op, WLs: []flash.WordlineAddr{wl}}, at)
	if err != nil {
		return BitwiseResult{}, err
	}
	d.stats.BitwiseOps++
	if d.tele.sink != nil {
		d.tele.sink.Counter(tripleOpName).Add(1)
		d.tele.opTrack.Span("triple/"+op.String(), at, res.Ready)
	}
	return BitwiseResult{Data: res.Data, Done: res.Ready}, nil
}

// scrambled reports whether lpn's page is stored scrambled: a normal host
// write on a scrambling device. Such a page cannot sense as is (§4.3.2);
// it must be read and descrambled first.
func (d *Device) scrambled(lpn uint64) bool { return d.cfg.Scramble && !d.plain.has(lpn) }

// Read returns the (descrambled) content of a logical page, without host
// transfer: the controller-side view.
func (d *Device) Read(lpn uint64, at sim.Time) ([]byte, sim.Time, error) {
	data, done, err := d.ftl.Read(lpn, at)
	if err != nil {
		return nil, 0, err
	}
	if d.scrambled(lpn) {
		scrambleKeystream(lpn, data)
	}
	return data, done, nil
}

// ReadToHost reads a page and ships it over the host link as ShipToHost
// ships a computed result, returning when it reached the host.
func (d *Device) ReadToHost(lpn uint64, at sim.Time) ([]byte, sim.Time, error) {
	data, ready, err := d.Read(lpn, at)
	if err != nil {
		return nil, 0, err
	}
	r := BitwiseResult{Data: data, Done: ready}
	d.ShipToHost(&r)
	return r.Data, r.HostDone, nil
}

// readOperand reads an operand page into the controller buffer for a
// computation, descrambling if the page was stored scrambled (the firmware
// path §4.3.2 describes) and counting each descramble.
func (d *Device) readOperand(lpn uint64, at sim.Time) ([]byte, sim.Time, error) {
	data, done, err := d.ftl.Read(lpn, at)
	if err != nil {
		return nil, 0, err
	}
	if d.scrambled(lpn) {
		scrambleKeystream(lpn, data)
		d.stats.DescrambledOps++
	}
	return data, done, nil
}

// DrainTime reports when all in-flight flash work completes.
func (d *Device) DrainTime() sim.Time { return d.array.DrainTime() }

// ResetTiming idles every modeled resource without touching data.
func (d *Device) ResetTiming() {
	d.array.ResetTiming()
	d.host.Reset()
}
