package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// SpanKind classifies one level of the span hierarchy:
// run -> module -> phase -> file / function (-> phase again below a
// function, e.g. the per-function CFG build).
type SpanKind int

// Span kinds in hierarchy order.
const (
	SpanRun      SpanKind = iota // one CLI invocation / CheckModules batch
	SpanModule                   // one CheckSources call (a module)
	SpanPhase                    // one pipeline phase region (a fan-out, sema, cfg, a cache layer)
	SpanFile                     // one file inside a frontend fan-out
	SpanFunction                 // one function inside the checking fan-out
	NumSpanKinds
)

var spanKindNames = [NumSpanKinds]string{
	SpanRun:      "run",
	SpanModule:   "module",
	SpanPhase:    "phase",
	SpanFile:     "file",
	SpanFunction: "function",
}

// String returns the kind's stable name (used as the trace_event category).
func (k SpanKind) String() string {
	if k >= 0 && k < NumSpanKinds {
		return spanKindNames[k]
	}
	return fmt.Sprintf("spankind(%d)", int(k))
}

// SpanID identifies one recorded span; 0 means "no span" and is what every
// span carries when recording is off.
type SpanID int64

// Span is one timed region, opened by StartSpan and closed by EndSpan. It
// is a plain value the caller holds between the two calls, so timing a
// region allocates nothing. Start is nanoseconds since the recording epoch
// (EnableSpans); Dur is filled by EndSpan. Function spans additionally
// carry their position, their index in the module's serial function order
// (Seq) and per-function work counters, set by the caller before EndSpan.
type Span struct {
	ID     SpanID
	Parent SpanID
	Kind   SpanKind
	Name   string
	TID    int // worker index inside a fan-out; 0 for serial spans
	Start  int64
	Dur    int64
	File   string
	Line   int
	Seq    int
	Blocks int64
	Edges  int64
	Merges int64
	Clones int64

	phase Phase
	// outer is the phase the enclosing span's time is filed under, or
	// NumPhases when the enclosing span feeds no phase total.
	outer Phase
}

// feedsPhase reports whether the span's time is filed under its phase
// total: everything but run and module spans and the fan-out region spans,
// whose time is wall-clock (see EndSpan).
func (sp *Span) feedsPhase() bool {
	switch sp.Kind {
	case SpanRun, SpanModule:
		return false
	case SpanPhase:
		return !fanOut(sp.phase)
	}
	return true
}

// fanOut reports whether a phase runs as a worker fan-out region whose
// phase span measures wall-clock time while its file or function children
// sum per-worker time.
func fanOut(p Phase) bool {
	return p == PhasePreprocess || p == PhaseParse || p == PhaseCheck
}

// epoch anchors span timestamps on the monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// spanState holds the span recorder. It lives behind a single pointer in
// Metrics so that runs without span output pay one nil test.
type spanState struct {
	mu    sync.Mutex
	start int64 // nanotime at EnableSpans
	spans []Span
	next  atomic.Int64 // last SpanID handed out
	run   atomic.Int64 // SpanID of the root run span
}

// EnableSpans switches on span recording: from then on every closed span
// is appended to the list Spans returns. Must be called before checking
// begins; without it spans are timed and filed but not kept.
func (m *Metrics) EnableSpans() {
	if m == nil {
		return
	}
	m.spanSt = &spanState{start: nanotime()}
}

// SpansEnabled reports whether span recording is active.
func (m *Metrics) SpansEnabled() bool { return m != nil && m.spanSt != nil }

// StartSpan opens a timed region of the given kind and phase under parent
// (nil for a root) on worker tid. Run and module spans carry no phase: pass
// NumPhases. On a nil Metrics it returns a zero Span without reading the
// clock. Safe for concurrent use from fan-out workers.
func (m *Metrics) StartSpan(kind SpanKind, phase Phase, name string, parent *Span, tid int) Span {
	if m == nil {
		return Span{}
	}
	sp := Span{Kind: kind, Name: name, TID: tid, phase: phase, outer: NumPhases}
	if parent != nil {
		sp.Parent = parent.ID
		if parent.feedsPhase() {
			sp.outer = parent.phase
		}
	}
	if st := m.spanSt; st != nil {
		sp.ID = SpanID(st.next.Add(1))
	}
	sp.Start = nanotime()
	return sp
}

// EndSpan closes a span opened by StartSpan, sets its Dur and files the
// duration with atomics only:
//
//   - a module span adds to the end-to-end total;
//   - a fan-out region's phase span (preprocess, parse, check) adds to
//     that phase's wall time;
//   - every other span (file, function, serial phase) adds to its phase
//     total, and is taken out of its enclosing span's phase when that one
//     feeds a different phase total (a function's cfg span counts as cfg,
//     not check);
//   - run spans only structure the recorded hierarchy.
//
// The span is appended to the recorded list only when EnableSpans was
// called. Closing a zero Span, or any span on a nil Metrics, is a no-op.
func (m *Metrics) EndSpan(sp *Span) {
	if m == nil || sp.Start == 0 {
		return
	}
	sp.Dur = nanotime() - sp.Start
	switch {
	case sp.Kind == SpanModule:
		atomic.AddInt64(&m.totalNS, sp.Dur)
	case sp.Kind == SpanRun:
	case !sp.feedsPhase():
		atomic.AddInt64(&m.wall[sp.phase], sp.Dur)
	case sp.phase >= 0 && sp.phase < NumPhases:
		atomic.AddInt64(&m.phases[sp.phase], sp.Dur)
		if sp.outer != sp.phase && sp.outer >= 0 && sp.outer < NumPhases {
			atomic.AddInt64(&m.phases[sp.outer], -sp.Dur)
		}
	}
	if st := m.spanSt; st != nil {
		rec := *sp
		rec.Start -= st.start
		st.mu.Lock()
		st.spans = append(st.spans, rec)
		st.mu.Unlock()
	}
}

// BeginRunSpan opens the root run span and remembers its ID so nested
// layers (CheckSources, the frontend and checking fan-outs) can attach to
// it through RunSpan without threading it through every signature.
func (m *Metrics) BeginRunSpan(name string) Span {
	sp := m.StartSpan(SpanRun, NumPhases, name, nil, 0)
	if sp.ID != 0 {
		m.spanSt.run.Store(int64(sp.ID))
	}
	return sp
}

// RunSpan returns a parent handle for the span opened by BeginRunSpan (a
// handle with ID 0 if none).
func (m *Metrics) RunSpan() Span {
	sp := Span{Kind: SpanRun, phase: NumPhases}
	if m != nil && m.spanSt != nil {
		sp.ID = SpanID(m.spanSt.run.Load())
	}
	return sp
}

// Spans returns a copy of every recorded span in creation (ID) order.
func (m *Metrics) Spans() []Span {
	if m == nil || m.spanSt == nil {
		return nil
	}
	st := m.spanSt
	st.mu.Lock()
	out := make([]Span, len(st.spans))
	copy(out, st.spans)
	st.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// traceEvent is one Chrome trace_event "complete" event (ph "X").
// Timestamps and durations are microseconds, per the trace_event spec.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON object format of a trace_event profile, loadable by
// Perfetto and chrome://tracing.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceEvents renders spans as Chrome trace_event JSON. Spans on the
// same tid nest by time containment, so the run/module/phase hierarchy and
// the per-worker file/function spans render as a flame chart.
func WriteTraceEvents(w io.Writer, spans []Span) error {
	tf := traceFile{TraceEvents: make([]traceEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, sp := range spans {
		ev := traceEvent{
			Name: sp.Name,
			Cat:  sp.Kind.String(),
			Ph:   "X",
			TS:   float64(sp.Start) / 1e3,
			Dur:  float64(sp.Dur) / 1e3,
			PID:  1,
			TID:  sp.TID,
		}
		if sp.Kind == SpanFunction {
			ev.Args = map[string]any{
				"file":   sp.File,
				"line":   sp.Line,
				"blocks": sp.Blocks,
				"edges":  sp.Edges,
				"merges": sp.Merges,
				"clones": sp.Clones,
			}
		}
		tf.TraceEvents = append(tf.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// HotFunctions returns the n slowest function spans, sorted by duration
// descending with name as the deterministic tiebreak.
func HotFunctions(spans []Span, n int) []Span {
	var fns []Span
	for _, sp := range spans {
		if sp.Kind == SpanFunction {
			fns = append(fns, sp)
		}
	}
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].Dur != fns[j].Dur {
			return fns[i].Dur > fns[j].Dur
		}
		return fns[i].Name < fns[j].Name
	})
	if n > 0 && len(fns) > n {
		fns = fns[:n]
	}
	return fns
}

// FormatHotTable renders the -hot table: the n slowest functions by check
// wall time with their confluence-merge and store-clone counts.
func FormatHotTable(spans []Span, n int) string {
	fns := HotFunctions(spans, n)
	var b strings.Builder
	fmt.Fprintf(&b, "hot functions (top %d by check wall):\n", n)
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  #\tfunction\tposition\twall_us\tblocks\tmerges\tclones")
	for i, sp := range fns {
		fmt.Fprintf(tw, "  %d\t%s\t%s:%d\t%d\t%d\t%d\t%d\n",
			i+1, sp.Name, sp.File, sp.Line, sp.Dur/1e3, sp.Blocks, sp.Merges, sp.Clones)
	}
	tw.Flush()
	return b.String()
}
