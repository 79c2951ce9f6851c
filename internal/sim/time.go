// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel. Simulated threads (processes) are coroutines that one
// loop resumes strictly one at a time on a virtual clock, so simulation state
// needs no locking and every run with the same seed is bit-for-bit
// reproducible.
//
// The kernel is the substrate for the whole barrier-enabled IO stack
// reproduction: device controllers, NAND channels, block-layer daemons,
// journaling threads and application threads are all sim processes.
//
// Discipline: a process must only block through the primitives of this
// package (Sleep, Advance, Suspend, Queue.Get, Cond.Wait, Semaphore.Acquire,
// Join). Blocking on ordinary Go channels or mutexes from inside a process
// deadlocks the kernel.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration but is a distinct type so virtual and wall-clock time cannot
// be mixed by accident.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime = Time(1<<63 - 1)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns the time as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Millis returns the duration as a floating-point number of milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

func (t Time) String() string { return Duration(t).String() }

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fµs", d.Micros())
	case d < Second:
		return fmt.Sprintf("%.3fms", d.Millis())
	default:
		return fmt.Sprintf("%.6fs", d.Seconds())
	}
}

// Scale multiplies d by factor f, rounding to the nearest nanosecond.
func (d Duration) Scale(f float64) Duration {
	return Duration(float64(d)*f + 0.5)
}
