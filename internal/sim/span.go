package sim

import (
	"fmt"
	"io"
	"strings"
)

// spanRec is one trace-span event on the virtual clock.
type spanRec struct {
	at   Time
	ph   byte // 'b' begin, 'e' end, 'i' instant
	cat  string
	name string
	id   uint64
}

// SpanTrace records begin/end/instant spans keyed on virtual time, cheap
// enough to leave compiled into every layer: a disabled kernel pays one nil
// check per potential span. Dump with WriteChromeTrace to get a file
// chrome://tracing (or Perfetto) loads directly, with device commands,
// journal commits, sync calls and group commits as async span tracks.
type SpanTrace struct {
	recs       []spanRec
	dispatches bool
}

// StartSpans begins span recording on the kernel and returns the trace.
// With dispatches set, every kernel
// dispatch additionally records an instant event (one allocation per event —
// only for close-up looks at scheduling).
func (k *Kernel) StartSpans(dispatches bool) *SpanTrace {
	st := &SpanTrace{dispatches: dispatches}
	k.sp = st
	return st
}

// Spans returns the attached span trace, or nil when disabled.
func (k *Kernel) Spans() *SpanTrace { return k.sp }

// SpanBegin opens an async span at the current virtual time. cat groups the
// track ("device", "jbd", "fs", "kvwal"), id correlates begin with end
// (command seq, transaction id, group id). No-op without an attached trace.
func (k *Kernel) SpanBegin(cat, name string, id uint64) {
	if k.sp == nil {
		return
	}
	k.sp.recs = append(k.sp.recs, spanRec{at: k.now, ph: 'b', cat: cat, name: name, id: id})
}

// SpanEnd closes the async span opened with the same (cat, name, id).
func (k *Kernel) SpanEnd(cat, name string, id uint64) {
	if k.sp == nil {
		return
	}
	k.sp.recs = append(k.sp.recs, spanRec{at: k.now, ph: 'e', cat: cat, name: name, id: id})
}

// NewSpanTrace builds a detached span trace for hand-assembled dumps —
// e.g. rendering sampled request-trace exemplars as Chrome spans without a
// kernel to attach to.
func NewSpanTrace() *SpanTrace { return &SpanTrace{} }

// Append records one event at an explicit virtual time: ph is 'b' (begin),
// 'e' (end) or 'i' (instant); id correlates begin with end. It serves
// detached traces whose events are reconstructed after the fact rather
// than recorded live.
func (st *SpanTrace) Append(at Time, ph byte, cat, name string, id uint64) {
	st.recs = append(st.recs, spanRec{at: at, ph: ph, cat: cat, name: name, id: id})
}

// Len returns the number of recorded span events.
func (st *SpanTrace) Len() int {
	if st == nil {
		return 0
	}
	return len(st.recs)
}

// LabeledSpans names one kernel's span trace for a merged dump; each label
// becomes a Chrome trace process row.
type LabeledSpans struct {
	Label string
	Spans *SpanTrace
}

// WriteChromeTrace dumps the traces in Chrome trace_event JSON (JSON Object
// Format, "traceEvents" array of async "b"/"e" and instant "i" events).
// Trace ts is in microseconds, so virtual nanoseconds are divided by 1e3,
// keeping sub-µs precision as fractions. Spans left open at a crash stay
// open in the viewer, which is the honest rendering.
func WriteChromeTrace(w io.Writer, traces []LabeledSpans) error {
	bw := &errWriter{w: w}
	bw.printf("{\"traceEvents\":[")
	first := true
	for pid, lt := range traces {
		if lt.Spans == nil {
			continue
		}
		comma := func() {
			if !first {
				bw.printf(",")
			}
			first = false
		}
		comma()
		bw.printf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			pid+1, quote(lt.Label))
		for _, r := range lt.Spans.recs {
			comma()
			ts := float64(r.at) / 1e3
			switch r.ph {
			case 'i':
				bw.printf(`{"name":%s,"cat":%s,"ph":"i","s":"p","ts":%.3f,"pid":%d,"tid":1}`,
					quote(r.name), quote(r.cat), ts, pid+1)
			default:
				bw.printf(`{"name":%s,"cat":%s,"ph":"%c","id":"0x%x","ts":%.3f,"pid":%d,"tid":1}`,
					quote(r.name), quote(r.cat), r.ph, r.id, ts, pid+1)
			}
		}
	}
	bw.printf("]}\n")
	return bw.err
}

// quote JSON-escapes a label; span names are plain ASCII identifiers so the
// minimal escape set suffices.
func quote(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\t") {
		return `"` + s + `"`
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`)
	return `"` + r.Replace(s) + `"`
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
