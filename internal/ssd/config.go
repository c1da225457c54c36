// Package ssd assembles the ParaBit SSD: the flash array, the FTL, the
// host link, the data scrambler, and the controller modules of the
// paper's Fig. 9 — command parsing (via internal/nvme), operand
// reallocation, and parallel read. It exposes four schemes, the
// paper's three evaluated ones and the Flash-Cosmos extension:
//
//   - ParaBit (pre-allocation): operands were written co-located into the
//     LSB and MSB pages of shared wordlines, so the first operation of a
//     reduction senses directly; intermediate results still reallocate.
//   - ParaBit-ReAlloc: operands live wherever the FTL put them; every
//     operation first reallocates its two operands into shared wordlines.
//   - ParaBit-LocFree: operands live in LSB pages of aligned wordlines on
//     one plane; operations sense both wordlines through the (slightly
//     extended) latching circuit and never reallocate.
//   - Flash-Cosmos: AND/OR reductions over operands colocated in one
//     block sense every operand in one multi-wordline sense; anything
//     else runs location-free.
package ssd

import (
	"fmt"
	"strings"

	"parabit/internal/flash"
	"parabit/internal/ftl"
	"parabit/internal/interconnect"
)

// Scheme selects how the device executes bitwise operations.
type Scheme uint8

const (
	// SchemePreAlloc is the paper's "ParaBit": operands pre-allocated to
	// shared MLC cells.
	SchemePreAlloc Scheme = iota
	// SchemeReAlloc is "ParaBit-ReAlloc": reallocate before every
	// operation.
	SchemeReAlloc
	// SchemeLocFree is "ParaBit-LocFree": location-free sensing over
	// aligned LSB pages, requiring the added inverter hardware.
	SchemeLocFree
	// SchemeFlashCosmos is the Flash-Cosmos extension: N-operand AND/OR
	// reductions in ONE multi-wordline sense over operands colocated in a
	// single block (ESP-programmed for margin), with a pairwise LocFree
	// fallback whenever colocation, the operand cap, or the op's algebra
	// rules the single sense out.
	SchemeFlashCosmos
)

// schemeNames is the one scheme registry: every consumer — String,
// Schemes, ParseScheme, the telemetry tables, the op x scheme test
// matrices, the bench -scheme flag — derives from it, so adding a scheme
// is one line here plus its dispatch arms.
var schemeNames = [...]string{
	SchemePreAlloc:    "ParaBit",
	SchemeReAlloc:     "ParaBit-ReAlloc",
	SchemeLocFree:     "ParaBit-LocFree",
	SchemeFlashCosmos: "Flash-Cosmos",
}

func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// Schemes lists every scheme for experiment sweeps and test matrices, in
// declaration order.
var Schemes = func() []Scheme {
	out := make([]Scheme, len(schemeNames))
	for i := range out {
		out[i] = Scheme(i)
	}
	return out
}()

// schemeAliases are the short command-line names ParseScheme also
// accepts, lower-case.
var schemeAliases = map[string]Scheme{
	"prealloc":    SchemePreAlloc,
	"realloc":     SchemeReAlloc,
	"locfree":     SchemeLocFree,
	"flashcosmos": SchemeFlashCosmos,
	"fc":          SchemeFlashCosmos,
}

// ParseScheme resolves a scheme by its String() name or its short alias
// (prealloc, realloc, locfree, flashcosmos, fc), case-insensitively; the
// CLIs, bench flags and config files use it so scheme spellings live in
// one place.
func ParseScheme(name string) (Scheme, error) {
	for i, n := range schemeNames {
		if strings.EqualFold(name, n) {
			return Scheme(i), nil
		}
	}
	if s, ok := schemeAliases[strings.ToLower(name)]; ok {
		return s, nil
	}
	return 0, fmt.Errorf("ssd: unknown scheme %q (want one of %s)", name, strings.Join(schemeNames[:], ", "))
}

// Config parameterizes the device.
type Config struct {
	Geometry flash.Geometry
	Timing   flash.Timing
	FTL      ftl.Config
	// HostLinkGBps is the effective SSD-to-host bandwidth; the paper's
	// measured PCIe Gen3 x4 value is the default.
	HostLinkGBps float64
	// Scramble enables the data scrambler on normal host writes
	// (§4.3.2). Operand and reallocation writes always bypass it.
	Scramble bool
	// ECCSectorBytes, when nonzero, installs a SEC-DED codec over
	// sectors of this size on the baseline read path; combined with a
	// noise model it gives §5.8's configuration (raw errors corrected on
	// ordinary reads, uncorrected on ParaBit results).
	ECCSectorBytes int
	// QueryCacheBytes bounds the controller-DRAM result cache the query
	// planner keeps hot intermediates in. 0 selects the default of 64
	// pages; negative values disable the cache.
	QueryCacheBytes int64
}

// queryCacheBytes resolves the cache size policy.
func (c Config) queryCacheBytes() int64 {
	if c.QueryCacheBytes < 0 {
		return 0
	}
	if c.QueryCacheBytes == 0 {
		return 64 * int64(c.Geometry.PageSize)
	}
	return c.QueryCacheBytes
}

// DefaultConfig returns the paper's evaluated 512 GB SSD.
func DefaultConfig() Config {
	return Config{
		Geometry:     flash.Default(),
		Timing:       flash.DefaultTiming(),
		FTL:          ftl.DefaultConfig(),
		HostLinkGBps: 3.19,
		Scramble:     true,
	}
}

// SmallConfig returns a functionally identical but tiny device for tests
// and examples.
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.Geometry = flash.Small()
	return cfg
}

// SmallTLCConfig returns a tiny TLC device for the §4.4.1 extension:
// three pages per wordline with TLC timing.
func SmallTLCConfig() Config {
	cfg := DefaultConfig()
	cfg.Geometry = flash.SmallTLC()
	cfg.Timing = flash.TLCTiming()
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := ftl.CheckGeometry(c.Geometry); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.HostLinkGBps <= 0 {
		return fmt.Errorf("ssd: host link bandwidth %v GB/s", c.HostLinkGBps)
	}
	return nil
}

func (c Config) hostLink() *interconnect.Link {
	return interconnect.NewLink("ssd-host", c.HostLinkGBps, 0)
}
