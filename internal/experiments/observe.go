package experiments

import (
	"io"
	"sync"

	"repro/internal/sim"
)

// spanCap collects trace spans across an experiment run. Cells run
// concurrently under par.For, so registration is mutex-guarded; each
// kernel's SpanTrace itself is only touched by that kernel's simulation.
var spanCap struct {
	sync.Mutex
	on     bool
	traces []sim.LabeledSpans
}

// CaptureSpans toggles span recording for kernels experiments build from
// now on, discarding anything captured before. With capture on, every cell
// of the next experiment records device/jbd/fs/kvwal spans for a Chrome
// trace dump (see WriteSpans).
func CaptureSpans(on bool) {
	spanCap.Lock()
	spanCap.on = on
	spanCap.traces = nil
	spanCap.Unlock()
}

// TakeSpans returns and clears the captured traces, one entry per kernel
// in creation order, labelled with the cell that built it.
func TakeSpans() []sim.LabeledSpans {
	spanCap.Lock()
	out := spanCap.traces
	spanCap.traces = nil
	spanCap.Unlock()
	return out
}

// WriteSpans dumps the captured traces as Chrome trace_event JSON, one
// trace-viewer process row per experiment cell.
func WriteSpans(w io.Writer) error { return sim.WriteChromeTrace(w, TakeSpans()) }

// RecordSpans registers a hand-assembled span trace (sim.NewSpanTrace) in
// the capture buffer under label, so reconstructed traces — e.g. sampled
// request-trace exemplars — land in the same Chrome dump as live kernel
// spans. A no-op while capture is off.
func RecordSpans(label string, st *sim.SpanTrace) {
	spanCap.Lock()
	if spanCap.on {
		spanCap.traces = append(spanCap.traces, sim.LabeledSpans{Label: label, Spans: st})
	}
	spanCap.Unlock()
}

// newKernel is the choke point every experiment cell builds its kernel
// through: span capture hooks in here, and the registry attachment rides
// along in core.NewStack. label names the cell in the span dump.
func newKernel(label string) *sim.Kernel {
	k := sim.NewKernel()
	spanCap.Lock()
	if spanCap.on {
		spanCap.traces = append(spanCap.traces,
			sim.LabeledSpans{Label: label, Spans: k.StartSpans()})
	}
	spanCap.Unlock()
	return k
}
