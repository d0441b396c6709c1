package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"golclint/internal/obs"
)

// metricsSrc exercises loops, branches (merges), annotations, and a leak so
// every counter family moves.
const metricsSrc = `extern /*@only@*/ void *malloc(unsigned long);

void leaky (int n)
{
	char *p;
	int i;
	p = (char *) malloc (10);
	i = 0;
	while (i < n)
	{
		if (n > 2) { i = i + 1; } else { i = i + 2; }
	}
}
`

// funcEvents renders the recorded function spans as -trace events.
func funcEvents(t *testing.T, m *obs.Metrics) []obs.FuncEvent {
	t.Helper()
	var buf bytes.Buffer
	obs.NewJSONLTracer(&buf).Funcs(m.Spans())
	var evs []obs.FuncEvent
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if ln == "" {
			continue
		}
		var ev obs.FuncEvent
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %q: %v", ln, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func TestCheckSourcesPopulatesMetrics(t *testing.T) {
	m := obs.New()
	m.EnableSpans()
	res := CheckSource("m.c", metricsSrc, Options{Metrics: m})
	if len(res.Diags) == 0 {
		t.Fatal("expected a leak diagnostic")
	}

	s := m.Snapshot()
	for _, c := range []obs.Counter{
		obs.TokensLexed, obs.ASTNodes, obs.CFGBlocks, obs.CFGEdges,
		obs.ConfluenceMerges, obs.LoopUnrollings, obs.AnnotationsConsumed,
		obs.DiagnosticsEmitted, obs.FunctionsChecked,
	} {
		if m.Get(c) <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, m.Get(c))
		}
	}
	if got := m.Get(obs.FunctionsChecked); got != 1 {
		t.Errorf("functions_checked = %d, want 1", got)
	}
	if got := m.Get(obs.DiagnosticsEmitted); got != int64(len(res.Diags)) {
		t.Errorf("diagnostics_emitted = %d, want %d", got, len(res.Diags))
	}

	// Phase durations are non-negative and disjoint: their sum cannot
	// exceed the end-to-end total.
	var sum int64
	for name, ns := range s.PhasesNS {
		if ns < 0 {
			t.Errorf("phase %s = %d ns, want >= 0", name, ns)
		}
		sum += ns
	}
	if sum > s.TotalNS {
		t.Errorf("phase sum %d ns exceeds total %d ns", sum, s.TotalNS)
	}
	if s.TotalNS <= 0 {
		t.Errorf("total = %d ns, want > 0", s.TotalNS)
	}

	evs := funcEvents(t, m)
	if len(evs) != 1 {
		t.Fatalf("trace events = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Func != "leaky" || ev.File != "m.c" {
		t.Errorf("event identity = %q %q", ev.Func, ev.File)
	}
	if ev.Blocks <= 0 || ev.Edges <= 0 || ev.Merges <= 0 || ev.DurationNS < 0 {
		t.Errorf("event not populated: %+v", ev)
	}
}

// The same run with a nil Metrics must behave identically (diagnostics
// unchanged), proving the instrumentation has no observable effect.
func TestNilMetricsSameDiagnostics(t *testing.T) {
	with := CheckSource("m.c", metricsSrc, Options{Metrics: obs.New()})
	without := CheckSource("m.c", metricsSrc, Options{})
	if with.Messages() != without.Messages() {
		t.Fatalf("messages differ:\n%q\nvs\n%q", with.Messages(), without.Messages())
	}
}
