package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/block"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// span is one traced interval on the virtual clock. Spans nest by cause:
// client op -> fs or kvwal call -> block request -> device service. req is
// the id of the client-op span at the root of the chain (0 for work a daemon
// started on its own).
type span struct {
	layer, name string
	start, end  sim.Time
	id, parent  uint64
	req         uint64
}

// blkRec is one block request seen by the submitter shim.
type blkRec struct {
	submit, dispatch, complete sim.Time
	op                         block.Op
	lpa, stream                uint64
	parent                     uint64
	failed                     bool
	done                       bool
}

// tracer keeps the traced pass's spans in memory; they are written out once
// the run has ended. Every method is a no-op on a nil tracer, which is what
// the timed passes hold.
type tracer struct {
	spans []span
	open  map[int]uint64 // proc id -> innermost open span id
	blk   []*blkRec
}

func newTracer() *tracer { return &tracer{open: make(map[int]uint64)} }

// begin opens a span on proc p under p's innermost open span.
func (t *tracer) begin(p *sim.Proc, layer, name string) uint64 {
	if t == nil {
		return 0
	}
	id := uint64(len(t.spans) + 1)
	parent := t.open[p.ID()]
	req := id
	if parent != 0 {
		req = t.spans[parent-1].req
	}
	t.spans = append(t.spans, span{layer: layer, name: name, start: p.Now(), id: id, parent: parent, req: req})
	t.open[p.ID()] = id
	return id
}

// end closes span id on proc p and returns its duration.
func (t *tracer) end(p *sim.Proc, id uint64) sim.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.end = p.Now()
	t.open[p.ID()] = s.parent
	return s.end.Sub(s.start)
}

// add records a finished span with explicit times; req 0 makes the span the
// root of its own request.
func (t *tracer) add(layer, name string, start, end sim.Time, parent, req uint64) uint64 {
	id := uint64(len(t.spans) + 1)
	if req == 0 {
		req = id
	}
	t.spans = append(t.spans, span{layer: layer, name: name, start: start, end: end, id: id, parent: parent, req: req})
	return id
}

// exemplarSpans turns one sampled request trace into spans: the request, its
// four top-level stages, and under the durability stage the six sub-stages,
// each on the row of the layer the time was spent in.
func (t *tracer) exemplarSpans(e reqtrace.Exemplar) {
	at := e.At(reqtrace.StageAdmit)
	root := t.add("kvcluster", "request", at, e.At(reqtrace.StageAck), 0, 0)
	subLayer := [reqtrace.NumSub]string{"kvwal", "fs", "block", "device", "device", "kvwal"}
	for i, d := range reqtrace.AttributeTop(e) {
		stage := t.add("kvcluster", reqtrace.TopStage(i).String(), at, at.Add(d), root, root)
		if reqtrace.TopStage(i) == reqtrace.TopDurability {
			sat := at
			for j, sd := range reqtrace.AttributeSub(e) {
				t.add(subLayer[j], reqtrace.SubStage(j).String(), sat, sat.Add(sd), stage, root)
				sat = sat.Add(sd)
			}
		}
		at = at.Add(d)
	}
}

// watch records a block request at submission and chains onto its completion
// callback. The callback restores the previous one before calling it: some
// owners recycle the request from inside theirs.
func (t *tracer) watch(p *sim.Proc, r *block.Request) {
	rec := &blkRec{submit: p.Now(), parent: t.open[p.ID()]}
	t.blk = append(t.blk, rec)
	prev := r.OnComplete
	r.OnComplete = func(at sim.Time, rr *block.Request) {
		rec.complete, rec.done = at, true
		rec.op, rec.lpa, rec.stream, rec.failed = rr.Op, rr.LPA, rr.Stream, rr.Err != nil
		rr.OnComplete = prev
		if prev != nil {
			prev(at, rr)
		}
	}
}

// shim is the benchmark-owned block.Submitter placed between the filesystem
// and the block layer in the traced pass. It forwards every call unchanged
// and schedules nothing, so the simulation it observes is the one the timed
// passes run — the digest check holds it to that.
type shim struct {
	inner block.Submitter
	tr    *tracer
}

var _ block.Submitter = (*shim)(nil)

func (s *shim) Submit(p *sim.Proc, r *block.Request) {
	s.tr.watch(p, r)
	s.inner.Submit(p, r)
}

func (s *shim) SubmitAndWait(p *sim.Proc, r *block.Request) {
	s.tr.watch(p, r)
	s.inner.SubmitAndWait(p, r)
}

func (s *shim) Flush(p *sim.Proc) { s.FlushT(p, reqtrace.Ctx{}) }

// FlushT sees only the call: the layer builds the flush request itself.
func (s *shim) FlushT(p *sim.Proc, tc reqtrace.Ctx) {
	rec := &blkRec{submit: p.Now(), parent: s.tr.open[p.ID()], op: block.OpFlush}
	s.tr.blk = append(s.tr.blk, rec)
	s.inner.FlushT(p, tc)
	rec.complete, rec.done = p.Now(), true
}

func (s *shim) SubmitOrPark(h *sim.Proc, r *block.Request) bool {
	if !s.inner.SubmitOrPark(h, r) {
		return false
	}
	s.tr.watch(h, r)
	return true
}

// blockStats matches the shim's records against the layer's dispatch log
// (same op, stream and page, in order), turns each completed request into a
// block span with a device-service child, and returns the three latency sets
// the per-layer table reports, restricted to requests submitted in
// [from, to).
func (t *tracer) blockStats(log []block.DispatchRecord, from, to sim.Time) (queue, inflight, service latencies, failed int64) {
	type key struct {
		op          block.Op
		stream, lpa uint64
	}
	pending := make(map[key][]sim.Time)
	for _, d := range log {
		k := key{d.Op, d.Stream, d.LPA}
		pending[k] = append(pending[k], d.At)
	}
	for _, r := range t.blk {
		if !r.done {
			continue
		}
		k := key{r.op, r.stream, r.lpa}
		if r.op == block.OpFlush {
			k = key{op: block.OpFlush}
		}
		r.dispatch = r.submit
		for q := pending[k]; len(q) > 0; q = pending[k] {
			pending[k] = q[1:]
			if q[0] >= r.submit {
				r.dispatch = q[0]
				break
			}
		}
		if r.dispatch > r.complete {
			r.dispatch = r.complete
		}
		if r.failed {
			failed++
		}
		id := uint64(len(t.spans) + 1)
		req := uint64(0)
		if r.parent != 0 {
			req = t.spans[r.parent-1].req
		}
		t.spans = append(t.spans,
			span{layer: "block", name: r.op.String(), start: r.submit, end: r.complete, id: id, parent: r.parent, req: req},
			span{layer: "device", name: r.op.String(), start: r.dispatch, end: r.complete, id: id + 1, parent: id, req: req})
		if r.submit >= from && r.submit < to {
			queue = append(queue, r.dispatch.Sub(r.submit))
			inflight = append(inflight, r.complete.Sub(r.submit))
			service = append(service, r.complete.Sub(r.dispatch))
		}
	}
	return queue, inflight, service, failed
}

// childRequests counts the block requests of kind op that a span named name
// submitted in [from, to).
func (t *tracer) childRequests(name string, op block.Op, from, to sim.Time) int64 {
	var n int64
	for _, r := range t.blk {
		if r.done && r.op == op && r.parent != 0 && r.submit >= from && r.submit < to &&
			t.spans[r.parent-1].name == name {
			n++
		}
	}
	return n
}

// uncovered returns, summed over the given spans, the part of each span's
// interval during which no block request was in flight: the layer's self
// time above the block layer.
func (t *tracer) uncovered(layer, name string, from, to sim.Time) sim.Duration {
	type iv struct{ a, b sim.Time }
	var ivs []iv
	for _, r := range t.blk {
		if r.done && r.complete > r.submit {
			ivs = append(ivs, iv{r.submit, r.complete})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	merged := ivs[:0]
	for _, v := range ivs {
		if n := len(merged); n > 0 && v.a <= merged[n-1].b {
			if v.b > merged[n-1].b {
				merged[n-1].b = v.b
			}
			continue
		}
		merged = append(merged, v)
	}
	// cum[i] is the covered time before merged[i] starts.
	cum := make([]sim.Duration, len(merged)+1)
	for i, v := range merged {
		cum[i+1] = cum[i] + v.b.Sub(v.a)
	}
	coveredBefore := func(x sim.Time) sim.Duration {
		i := sort.Search(len(merged), func(i int) bool { return merged[i].b > x })
		c := cum[i]
		if i < len(merged) && merged[i].a < x {
			c += x.Sub(merged[i].a)
		}
		return c
	}
	var self sim.Duration
	for _, s := range t.spans {
		if s.layer != layer || s.name != name || s.start < from || s.start >= to || s.end == 0 {
			continue
		}
		self += s.end.Sub(s.start) - (coveredBefore(s.end) - coveredBefore(s.start))
	}
	return self
}

// maxTraceSpans bounds the trace file: a full window holds a few hundred
// thousand spans, and the file is for looking at, not for the metrics.
const maxTraceSpans = 60000

// write dumps the spans as Chrome trace_event JSON (complete events, one
// thread row per layer; ts and dur in virtual microseconds).
func (t *tracer) write(path, workload string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	layers := []string{"client", "kvcluster", "kvwal", "fs", "block", "device"}
	rows := make(map[string]int, len(layers))
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"workload":%q,"clock":"virtual","spans":%d,"written":%d},"traceEvents":[`,
		workload, len(t.spans), min(len(t.spans), maxTraceSpans))
	fmt.Fprintf(w, `{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":%q}}`, workload)
	for i, layer := range layers {
		rows[layer] = i + 1
		fmt.Fprintf(w, `,{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, i+1, layer)
	}
	for i, s := range t.spans {
		if i == maxTraceSpans {
			break
		}
		if s.end < s.start {
			s.end = s.start // still open when the run ended
		}
		fmt.Fprintf(w, `,{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"id":%d,"parent":%d,"req":%d}}`,
			s.name, s.layer, s.start.Micros(), s.end.Sub(s.start).Micros(), rows[s.layer], s.id, s.parent, s.req)
	}
	fmt.Fprint(w, "]}\n")
	return w.Flush()
}
