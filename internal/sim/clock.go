// Package sim provides the virtual time the flash, SSD, PIM and ISC models
// compute in. Time is measured in nanoseconds; nothing in this package
// sleeps or touches the wall clock.
//
// Device models in this repository are resource-occupancy models (a plane
// is busy for 25 µs, a channel transfers a page for 5 µs, ...): they only
// track operation durations under SSD parallelism. So the package offers
// two primitives, virtual Time/Duration values and a Resource that books
// busy intervals in virtual-time order, and no event queue.
package sim

import "time"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts loss-free
// to time.Duration, which is also nanosecond-based.
type Duration int64

// Common durations, mirroring the time package for readability at call
// sites ("25 * sim.Microsecond").
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Std converts a virtual duration to a standard library time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros reports the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string { return time.Duration(d).String() }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
