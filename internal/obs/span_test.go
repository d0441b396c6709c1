package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// Every span API must be a no-op on a nil *Metrics — instrumented code
// calls them unconditionally.
func TestSpanNilMetricsNoOps(t *testing.T) {
	var m *Metrics
	m.EnableSpans()
	if m.SpansEnabled() {
		t.Error("nil Metrics reports spans enabled")
	}
	if sp := m.StartSpan(SpanRun, NumPhases, "x", nil, 0); sp.ID != 0 {
		t.Errorf("StartSpan on nil = %d, want 0", sp.ID)
	}
	sp := Span{ID: 1, Kind: SpanFunction, Start: 1}
	m.EndSpan(&sp)
	if sp.Dur != 0 {
		t.Errorf("EndSpan on nil set Dur = %d", sp.Dur)
	}
	if sp := m.BeginRunSpan("run"); sp.ID != 0 {
		t.Errorf("BeginRunSpan on nil = %d, want 0", sp.ID)
	}
	if sp := m.RunSpan(); sp.ID != 0 {
		t.Errorf("RunSpan on nil = %d, want 0", sp.ID)
	}
	if sp := m.Spans(); sp != nil {
		t.Errorf("Spans on nil = %v, want nil", sp)
	}
}

// A Metrics without EnableSpans times spans but keeps none (the path every
// metrics-only run takes), and span IDs stay 0.
func TestSpanDisabledNoOps(t *testing.T) {
	m := New()
	if m.SpansEnabled() {
		t.Error("spans enabled before EnableSpans")
	}
	sp := m.StartSpan(SpanPhase, PhaseSema, "sema", nil, 0)
	if sp.ID != 0 {
		t.Errorf("StartSpan disabled = %d, want 0", sp.ID)
	}
	m.EndSpan(&sp)
	if got := m.Spans(); got != nil {
		t.Errorf("Spans = %v, want nil", got)
	}
	if m.PhaseDuration(PhaseSema) != time.Duration(sp.Dur) {
		t.Errorf("sema = %v, want the span's %d ns", m.PhaseDuration(PhaseSema), sp.Dur)
	}
}

func TestSpanHierarchyAndExport(t *testing.T) {
	m := New()
	m.EnableSpans()
	run := m.BeginRunSpan("golclint")
	if run.ID == 0 || m.RunSpan().ID != run.ID {
		t.Fatalf("run span = %d, RunSpan = %d", run.ID, m.RunSpan().ID)
	}
	mod := m.StartSpan(SpanModule, NumPhases, "mod", &run, 0)
	fn := m.StartSpan(SpanFunction, PhaseCheck, "f", &mod, 2)
	fn.File, fn.Line, fn.Blocks, fn.Edges, fn.Merges, fn.Clones = "a.c", 3, 7, 8, 2, 5
	m.EndSpan(&fn)
	m.EndSpan(&mod)
	m.EndSpan(&run)

	spans := m.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].ID != run.ID || spans[1].ID != mod.ID {
		t.Errorf("spans not in creation order: %+v", spans)
	}
	f := spans[2]
	if f.Parent != mod.ID || f.TID != 2 || f.File != "a.c" || f.Line != 3 ||
		f.Blocks != 7 || f.Edges != 8 || f.Merges != 2 || f.Clones != 5 {
		t.Errorf("function span = %+v", f)
	}
	if f.Dur < 0 || spans[0].Dur < f.Dur || f.Start < spans[0].Start {
		t.Errorf("spans not nested: run %d+%d, fn %d+%d", spans[0].Start, spans[0].Dur, f.Start, f.Dur)
	}

	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not JSON: %v\n%s", err, buf.String())
	}
	if len(tf.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(tf.TraceEvents))
	}
	for _, ev := range tf.TraceEvents {
		if ev["ph"] != "X" {
			t.Errorf("event ph = %v, want X", ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Errorf("event ts missing: %v", ev)
		}
	}
	if tf.TraceEvents[2]["cat"] != "function" {
		t.Errorf("function event cat = %v", tf.TraceEvents[2]["cat"])
	}
}

// Concurrent open/close from worker goroutines — run under -race.
func TestSpanConcurrent(t *testing.T) {
	m := New()
	m.EnableSpans()
	run := m.BeginRunSpan("golclint")
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := m.StartSpan(SpanFunction, PhaseCheck, fmt.Sprintf("w%d_f%d", w, i), &run, w)
				sp.File, sp.Line, sp.Blocks, sp.Merges, sp.Clones = "x.c", i, int64(i), 1, 2
				m.EndSpan(&sp)
			}
		}()
	}
	wg.Wait()
	m.EndSpan(&run)
	spans := m.Spans()
	if len(spans) != workers*perWorker+1 {
		t.Fatalf("got %d spans, want %d", len(spans), workers*perWorker+1)
	}
	for i, sp := range spans[1:] {
		if sp.Parent != run.ID || sp.Dur < 0 || sp.ID <= spans[i].ID {
			t.Errorf("bad span %+v", sp)
		}
	}
}

func TestHotTable(t *testing.T) {
	spans := []Span{
		{Kind: SpanRun, Name: "run", Dur: 100},
		{Kind: SpanFunction, Name: "slow", File: "a.c", Line: 1, Dur: 90_000, Merges: 3, Clones: 7},
		{Kind: SpanFunction, Name: "fast", File: "a.c", Line: 9, Dur: 1_000},
		{Kind: SpanFunction, Name: "mid", File: "b.c", Line: 4, Dur: 5_000},
	}
	hot := HotFunctions(spans, 2)
	if len(hot) != 2 || hot[0].Name != "slow" || hot[1].Name != "mid" {
		t.Fatalf("hot = %+v", hot)
	}
	table := FormatHotTable(spans, 2)
	if !strings.Contains(table, "slow") || !strings.Contains(table, "a.c:1") {
		t.Errorf("table missing entries:\n%s", table)
	}
	if strings.Contains(table, "fast") {
		t.Errorf("table includes beyond top-N:\n%s", table)
	}
}

// Ties on duration break deterministically by name.
func TestHotFunctionsDeterministicTie(t *testing.T) {
	spans := []Span{
		{Kind: SpanFunction, Name: "b", Dur: 10},
		{Kind: SpanFunction, Name: "a", Dur: 10},
	}
	hot := HotFunctions(spans, 0)
	if hot[0].Name != "a" || hot[1].Name != "b" {
		t.Errorf("tie not broken by name: %+v", hot)
	}
}

func TestJSONLTracerDiagEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	tr.Diag(DiagEvent{Code: "mustfree", File: "a.c", Line: 4, Msg: "leak",
		Ref: "p", Witness: []string{"a.c:2: [alloc] fresh storage"}})
	var ev map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("diag event not JSON: %v", err)
	}
	if ev["type"] != "diag" || ev["code"] != "mustfree" {
		t.Errorf("event = %v", ev)
	}
}

// Function events render in serial function order — by enclosing check
// span, then Seq — whatever order the workers closed the spans in, and only
// function spans become events.
func TestJSONLTracerFuncsSerialOrder(t *testing.T) {
	spans := []Span{
		{ID: 9, Parent: 5, Kind: SpanFunction, Name: "b1", Seq: 1},
		{ID: 8, Parent: 2, Kind: SpanFunction, Name: "a2", Seq: 2},
		{ID: 7, Parent: 5, Kind: SpanFunction, Name: "b0", Seq: 0},
		{ID: 6, Parent: 2, Kind: SpanPhase, Name: "cfg"},
		{ID: 4, Parent: 2, Kind: SpanFunction, Name: "a0", Seq: 0},
		{ID: 3, Parent: 2, Kind: SpanFunction, Name: "a1", Seq: 1},
	}
	var buf bytes.Buffer
	NewJSONLTracer(&buf).Funcs(spans)
	var got []string
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev FuncEvent
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatal(err)
		}
		got = append(got, ev.Func)
	}
	if want := "a0 a1 a2 b0 b1"; strings.Join(got, " ") != want {
		t.Errorf("order = %v, want %s", got, want)
	}
}
