// Observability must be free of Heisenberg effects: enabling the metrics
// registry and kernel trace spans must not perturb the dispatch order. Each
// golden case runs once bare and once with a live registry + spans recording,
// and the two dispatch traces must be byte-identical. The observed run also
// pins that the instruments actually fired (a silently-disabled registry
// would pass the identity check vacuously) and that the span dump is valid
// Chrome trace_event JSON.
package repro_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// traceOfObserved runs one golden case with spans and the given registry
// live, returning the dispatch trace and the recorded spans.
func traceOfObserved(c goldenCase) (*sim.Trace, *sim.SpanTrace) {
	k := sim.NewKernel()
	defer k.Close()
	sp := k.StartSpans()
	tr := k.StartTrace(false)
	c.run(k)
	return tr, sp
}

func TestGoldenTracesWithObservability(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			bare := traceOf(c)

			reg := metrics.NewRegistry()
			metrics.SetLive(reg)
			defer metrics.SetLive(nil)
			obs, spans := traceOfObserved(c)

			if bare.Len() != obs.Len() || bare.Hash() != obs.Hash() {
				t.Fatalf("observability perturbed the dispatch order: bare (n=%d h=%x) vs observed (n=%d h=%x)",
					bare.Len(), bare.Hash(), obs.Len(), obs.Hash())
			}
			if reg.Counter("device/writes").Value() == 0 {
				t.Error("registry live but device/writes never incremented")
			}
			if len(reg.Snapshot()) == 0 {
				t.Error("empty registry snapshot after an observed run")
			}
			if spans.Len() == 0 {
				t.Error("spans enabled but none recorded")
			}

			var buf bytes.Buffer
			if err := sim.WriteChromeTrace(&buf, []sim.LabeledSpans{{Label: c.name, Spans: spans}}); err != nil {
				t.Fatalf("WriteChromeTrace: %v", err)
			}
			var dump struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
				t.Fatalf("span dump is not valid JSON: %v", err)
			}
			if len(dump.TraceEvents) != spans.Len()+1 { // +1 process_name metadata
				t.Errorf("span dump has %d events, want %d", len(dump.TraceEvents), spans.Len()+1)
			}
		})
	}
}
