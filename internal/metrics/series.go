package metrics

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Point is one (time, value) observation.
type Point struct {
	At    sim.Time
	Value float64
}

// Series records a step function over virtual time, e.g. the device command
// queue depth used in the paper's Figs. 10 and 12. Record only stores
// transitions, so an idle queue costs nothing.
type Series struct {
	name   string
	points []Point
}

// NewSeries returns an empty series labelled name.
func NewSeries(name string) *Series { return &Series{name: name} }

// Record appends an observation; consecutive equal values are coalesced. A
// nil series records nothing, so an owner can leave the series unallocated
// until someone asks for it.
func (s *Series) Record(at sim.Time, v float64) {
	if s == nil {
		return
	}
	if n := len(s.points); n > 0 && s.points[n-1].Value == v {
		return
	}
	s.points = append(s.points, Point{At: at, Value: v})
}

// ValueAt returns the series value at time t (0 before the first point).
func (s *Series) ValueAt(t sim.Time) float64 {
	v := 0.0
	for _, p := range s.points {
		if p.At > t {
			break
		}
		v = p.Value
	}
	return v
}

// Mean returns the time-weighted mean value over [from, to]; 0 for an
// empty or inverted window, never NaN.
func (s *Series) Mean(from, to sim.Time) float64 {
	if to <= from || len(s.points) == 0 {
		return 0
	}
	var area float64
	cur := s.ValueAt(from)
	last := from
	for _, p := range s.points {
		if p.At <= from {
			continue
		}
		if p.At >= to {
			break
		}
		area += cur * float64(p.At-last)
		cur = p.Value
		last = p.At
	}
	area += cur * float64(to-last)
	return area / float64(to-from)
}

// Peak returns the maximum value observed in [from, to].
func (s *Series) Peak(from, to sim.Time) float64 {
	peak := s.ValueAt(from)
	for _, p := range s.points {
		if p.At < from || p.At > to {
			continue
		}
		if p.Value > peak {
			peak = p.Value
		}
	}
	return peak
}

// sample reduces the series to n evenly spaced samples over [from, to],
// suitable for plotting the Fig. 10 / Fig. 12 queue-depth timelines as text.
func (s *Series) sample(from, to sim.Time, n int) []Point {
	if n < 2 || to <= from {
		return nil
	}
	out := make([]Point, n)
	step := sim.Duration(to-from) / sim.Duration(n-1)
	for i := 0; i < n; i++ {
		at := from.Add(step * sim.Duration(i))
		out[i] = Point{At: at, Value: s.ValueAt(at)}
	}
	return out
}

// AsciiPlot renders the series as a crude text plot: one row per sample,
// with a bar proportional to the value. Good enough to see the Fig. 10
// "queue stuck at 1" vs "queue saturates" contrast in a terminal.
func (s *Series) AsciiPlot(from, to sim.Time, rows int, maxVal float64) string {
	if maxVal <= 0 {
		maxVal = 1 // flat series: plot against a unit scale, not NaN bars
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (time %v .. %v)\n", s.name, from, to)
	for _, p := range s.sample(from, to, rows) {
		bar := int(p.Value / maxVal * 50)
		if bar < 0 {
			bar = 0
		}
		if bar > 50 {
			bar = 50
		}
		fmt.Fprintf(&b, "%10.3fms |%-50s| %.0f\n", p.At.Millis(), strings.Repeat("#", bar), p.Value)
	}
	return b.String()
}
