// Package obs is the checker's instrumentation layer. Its one timing
// primitive is the span (span.go): every timed region — a pipeline phase,
// one file inside a frontend fan-out, one function inside the checking
// fan-out — is a StartSpan/EndSpan pair naming its kind and its phase.
// Closing a span files its duration under its phase with atomics only, so
// the per-phase totals, the fan-out wall times and the end-to-end total of
// a -stats-json snapshot, the -trace JSONL stream, the -trace-out flame
// chart and the -hot table are all views of the same spans. Alongside the
// spans sit analysis counters (tokens lexed, AST nodes, CFG blocks/edges,
// confluence merges, loop unrollings, annotations consumed, diagnostics
// emitted/suppressed, library entries loaded, cache traffic).
//
// The package has no dependencies beyond the standard library and is
// designed so that uninstrumented runs pay almost nothing: a nil *Metrics
// is valid, every method on it is a no-op, and instrumented code paths cost
// one pointer test when observability is off. All mutation is atomic, so a
// single Metrics may be shared by concurrent checking goroutines.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Phase identifies one stage of the checking pipeline. Phases are disjoint:
// a span nested in another span's phase (the CFG build inside a function's
// check) is taken out of the enclosing phase, so the per-phase sum
// approximates the end-to-end total.
type Phase int

// Pipeline phases.
const (
	PhasePreprocess  Phase = iota // cpp: macro expansion and includes
	PhaseParse                    // ctoken+cparse: lexing and parsing
	PhaseSema                     // sema: environment construction (and library install)
	PhaseCFG                      // cfg: per-function control-flow graph construction
	PhaseCheck                    // core: the per-function dataflow pass
	PhaseCacheLookup              // module cache key hashing, store get, dependency check
	PhaseFnCache                  // cache segmentation scan, function sub-entry keys and probes, replay
	PhaseValidate                 // counterexample validation of the final diagnostics
	PhaseCacheWrite               // function sub-entry and module entry writes, interface export
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhasePreprocess:  "preprocess",
	PhaseParse:       "parse",
	PhaseSema:        "sema",
	PhaseCFG:         "cfg",
	PhaseCheck:       "check",
	PhaseCacheLookup: "cache_lookup",
	PhaseFnCache:     "fncache",
	PhaseValidate:    "validate",
	PhaseCacheWrite:  "cache_write",
}

// String returns the phase's stable name (used as a JSON key).
func (p Phase) String() string {
	if p >= 0 && p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Counter identifies one analysis counter.
type Counter int

// Analysis counters.
const (
	TokensLexed           Counter = iota // tokens produced by the lexer (annotations included)
	ASTNodes                             // AST nodes across all translation units
	CFGBlocks                            // CFG nodes built
	CFGEdges                             // CFG edges built
	ConfluenceMerges                     // store merges at confluence points
	LoopUnrollings                       // loops analyzed (each as zero-or-one executions)
	AnnotationsConsumed                  // /*@...@*/ annotation comments lexed
	DiagnosticsEmitted                   // retained diagnostics
	DiagnosticsSuppressed                // diagnostics dropped by suppression or the message bound
	LibraryEntriesLoaded                 // interface-library entries installed (modular checking)
	FunctionsChecked                     // function definitions analyzed
	CacheHits                            // modules replayed from the persistent analysis cache
	CacheMisses                          // modules checked cold with caching enabled
	CacheBytes                           // cache entry bytes read on hits plus written on misses
	StoreClones                          // O(1) copy-on-write store clones
	RefStatesCopied                      // refStates copied by the copy-on-write fault path
	MergeNS                              // nanoseconds spent in mergeStores
	Validated                            // diagnostics examined by counterexample validation
	ConfirmedDiags                       // diagnostics whose fault the interpreter reproduced
	InfeasibleDiags                      // diagnostics whose fault site no generated input reached
	ValidateWallNS                       // nanoseconds spent in the validation pass
	FuncCacheHits                        // functions replayed from per-function cache sub-entries
	FuncCacheMisses                      // functions re-checked cold with the function layer enabled
	FuncReplayedDiags                    // diagnostics replayed from function sub-entries
	NumCounters
)

var counterNames = [NumCounters]string{
	TokensLexed:           "tokens_lexed",
	ASTNodes:              "ast_nodes",
	CFGBlocks:             "cfg_blocks",
	CFGEdges:              "cfg_edges",
	ConfluenceMerges:      "confluence_merges",
	LoopUnrollings:        "loop_unrollings",
	AnnotationsConsumed:   "annotations_consumed",
	DiagnosticsEmitted:    "diagnostics_emitted",
	DiagnosticsSuppressed: "diagnostics_suppressed",
	LibraryEntriesLoaded:  "library_entries_loaded",
	FunctionsChecked:      "functions_checked",
	CacheHits:             "cache_hits",
	CacheMisses:           "cache_misses",
	CacheBytes:            "cache_bytes",
	StoreClones:           "store_clones",
	RefStatesCopied:       "refstates_copied",
	MergeNS:               "merge_ns",
	Validated:             "validated",
	ConfirmedDiags:        "confirmed",
	InfeasibleDiags:       "infeasible",
	ValidateWallNS:        "validate_wall_ns",
	FuncCacheHits:         "func_cache_hits",
	FuncCacheMisses:       "func_cache_misses",
	FuncReplayedDiags:     "func_replayed_diags",
}

// String returns the counter's stable name (used as a JSON key).
func (c Counter) String() string {
	if c >= 0 && c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", int(c))
}

// Metrics accumulates phase durations and counters for one or more checking
// runs. A nil *Metrics is valid: every method is a no-op, so instrumented
// code can call unconditionally. Durations arrive only through spans (see
// span.go): EndSpan files each closed span's time under its phase.
type Metrics struct {
	phases   [NumPhases]int64   // nanoseconds, atomic
	counters [NumCounters]int64 // atomic
	totalNS  int64              // atomic; module spans
	// wall holds per-phase wall-clock times for the phases that run as
	// fan-out regions (preprocess, parse, check). Under parallel execution
	// the per-phase durations in phases sum each worker's time (CPU-like
	// totals), so wall and CPU diverge; their ratio is the effective
	// parallel speedup of that region.
	wall [NumPhases]int64 // nanoseconds, atomic
	jobs int64            // atomic; worker count of the most recent run
	// spanSt holds the span recorder (see span.go); nil unless EnableSpans
	// was called, so runs without -trace, -trace-out or -hot time their
	// spans but never append them anywhere.
	spanSt *spanState
}

// New returns an empty Metrics.
func New() *Metrics { return &Metrics{} }

// Enabled reports whether metrics are being collected (m is non-nil).
func (m *Metrics) Enabled() bool { return m != nil }

// Add increments counter c by n.
func (m *Metrics) Add(c Counter, n int64) {
	if m == nil || c < 0 || c >= NumCounters {
		return
	}
	atomic.AddInt64(&m.counters[c], n)
}

// Get returns the current value of counter c.
func (m *Metrics) Get(c Counter) int64 {
	if m == nil || c < 0 || c >= NumCounters {
		return 0
	}
	return atomic.LoadInt64(&m.counters[c])
}

// PhaseDuration returns phase p's accumulated duration.
func (m *Metrics) PhaseDuration(p Phase) time.Duration {
	if m == nil || p < 0 || p >= NumPhases {
		return 0
	}
	return time.Duration(atomic.LoadInt64(&m.phases[p]))
}

// SetJobs records the worker count used by the checking fan-out.
func (m *Metrics) SetJobs(n int) {
	if m == nil {
		return
	}
	atomic.StoreInt64(&m.jobs, int64(n))
}

// Jobs returns the recorded worker count (0 if never set).
func (m *Metrics) Jobs() int {
	if m == nil {
		return 0
	}
	return int(atomic.LoadInt64(&m.jobs))
}

// Snapshot is a point-in-time, JSON-serializable copy of the metrics.
// Phase and counter names are the stable String() spellings, so consumers
// can diff snapshots across runs and versions.
type Snapshot struct {
	TotalNS int64 `json:"total_ns"`
	// PhasesNS sum per-worker time for the fan-out phases (CPU-like totals
	// under parallel execution); PreprocessWallNS/ParseWallNS/CheckWallNS
	// are the wall-clock times of the corresponding fan-out regions, and
	// Jobs the worker count that produced them.
	PhasesNS         map[string]int64 `json:"phases_ns"`
	PreprocessWallNS int64            `json:"preprocess_wall_ns"`
	ParseWallNS      int64            `json:"parse_wall_ns"`
	CheckWallNS      int64            `json:"check_wall_ns"`
	Jobs             int              `json:"jobs"`
	Counters         map[string]int64 `json:"counters"`
}

// Snapshot captures the current state. On a nil Metrics it returns a zero
// snapshot with empty (non-nil) maps.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		PhasesNS: make(map[string]int64, int(NumPhases)),
		Counters: make(map[string]int64, int(NumCounters)),
	}
	for p := Phase(0); p < NumPhases; p++ {
		s.PhasesNS[p.String()] = int64(m.PhaseDuration(p))
	}
	for c := Counter(0); c < NumCounters; c++ {
		s.Counters[c.String()] = m.Get(c)
	}
	s.Jobs = m.Jobs()
	if m == nil {
		return s
	}
	s.TotalNS = atomic.LoadInt64(&m.totalNS)
	s.PreprocessWallNS = atomic.LoadInt64(&m.wall[PhasePreprocess])
	s.ParseWallNS = atomic.LoadInt64(&m.wall[PhaseParse])
	s.CheckWallNS = atomic.LoadInt64(&m.wall[PhaseCheck])
	return s
}
