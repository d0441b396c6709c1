package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// FuncEvent is the -trace record of one checked function, rendered from
// its function span.
type FuncEvent struct {
	Func       string `json:"func"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Blocks     int    `json:"blocks"` // CFG nodes
	Edges      int    `json:"edges"`  // CFG edges
	Merges     int    `json:"merges"` // confluence merges during the pass
	DurationNS int64  `json:"duration_ns"`
}

// DiagEvent describes one emitted diagnostic with its witness path. Events
// are emitted only under -explain, after diagnostics are finalized, in
// their sorted (deterministic) order.
type DiagEvent struct {
	Type    string   `json:"type"` // always "diag", distinguishing from func events
	Code    string   `json:"code"`
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Msg     string   `json:"msg"`
	Ref     string   `json:"ref,omitempty"`     // the implicated reference, if any
	Witness []string `json:"witness,omitempty"` // rendered "file:line: [kind] msg" steps
	// Validation is the counterexample-validation tag ("confirmed",
	// "unreproduced", "path-infeasible"); empty when the run did not
	// validate diagnostics.
	Validation string `json:"validation,omitempty"`
}

// JSONLTracer writes the -trace stream, one JSON object per line. The
// first write error is retained (see Err) and subsequent events are
// dropped, so a failing sink cannot wedge the analysis.
type JSONLTracer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLTracer returns a tracer writing JSONL events to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: w}
}

// Funcs writes one FuncEvent per function span in serial function order:
// by enclosing check span, then by Seq. Workers close function spans in
// any order, so the stream is byte-identical (durations aside) at every
// worker count.
func (t *JSONLTracer) Funcs(spans []Span) {
	var fns []Span
	for _, sp := range spans {
		if sp.Kind == SpanFunction {
			fns = append(fns, sp)
		}
	}
	sort.SliceStable(fns, func(i, j int) bool {
		if fns[i].Parent != fns[j].Parent {
			return fns[i].Parent < fns[j].Parent
		}
		return fns[i].Seq < fns[j].Seq
	})
	for _, sp := range fns {
		t.write(FuncEvent{
			Func: sp.Name, File: sp.File, Line: sp.Line,
			Blocks: int(sp.Blocks), Edges: int(sp.Edges), Merges: int(sp.Merges),
			DurationNS: sp.Dur,
		})
	}
}

// Diag writes one diagnostic event.
func (t *JSONLTracer) Diag(ev DiagEvent) {
	ev.Type = "diag"
	t.write(ev)
}

func (t *JSONLTracer) write(ev any) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	b = append(b, '\n')
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	_, t.err = t.w.Write(b)
}

// Err returns the first write error encountered, if any.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
