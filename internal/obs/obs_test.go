package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// A nil *Metrics must accept every call without panicking and report zeros.
func TestNilMetricsNoOp(t *testing.T) {
	var m *Metrics
	if m.Enabled() {
		t.Fatal("nil Metrics reports Enabled")
	}
	m.Add(TokensLexed, 5)
	sp := m.StartSpan(SpanFile, PhaseParse, "a.c", nil, 0)
	if sp != (Span{}) {
		t.Fatalf("nil StartSpan = %+v, want zero", sp)
	}
	m.EndSpan(&sp)
	mod := m.StartSpan(SpanModule, NumPhases, "a.c", nil, 0)
	m.EndSpan(&mod)
	if got := m.Get(TokensLexed); got != 0 {
		t.Fatalf("nil Get = %d, want 0", got)
	}
	if got := m.PhaseDuration(PhaseParse); got != 0 {
		t.Fatalf("nil PhaseDuration = %v, want 0", got)
	}
	s := m.Snapshot()
	if s.TotalNS != 0 || len(s.PhasesNS) != int(NumPhases) || len(s.Counters) != int(NumCounters) {
		t.Fatalf("nil Snapshot = %+v", s)
	}
	for name, v := range s.Counters {
		if v != 0 {
			t.Fatalf("nil snapshot counter %s = %d", name, v)
		}
	}
}

// Out-of-range phases and counters are ignored, not a panic or a write
// past the array.
func TestOutOfRangeIgnored(t *testing.T) {
	m := New()
	m.Add(Counter(-1), 1)
	m.Add(NumCounters, 1)
	for _, p := range []Phase{-1, NumPhases} {
		sp := m.StartSpan(SpanFile, p, "x", nil, 0)
		m.EndSpan(&sp)
	}
	if m.Get(Counter(-1)) != 0 || m.Get(NumCounters) != 0 {
		t.Fatal("out-of-range Get nonzero")
	}
	if got := Counter(99).String(); got != "counter(99)" {
		t.Fatalf("Counter(99).String() = %q", got)
	}
	if got := Phase(99).String(); got != "phase(99)" {
		t.Fatalf("Phase(99).String() = %q", got)
	}
	for name, ns := range m.Snapshot().PhasesNS {
		if ns != 0 {
			t.Fatalf("out-of-range span filed %d ns under %s", ns, name)
		}
	}
}

// Concurrent increments and span closes must not lose updates.
func TestConcurrentAdd(t *testing.T) {
	m := New()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	durs := make([]int64, goroutines)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				m.Add(ConfluenceMerges, 1)
				sp := m.StartSpan(SpanFunction, PhaseCheck, "f", nil, i)
				m.EndSpan(&sp)
				durs[i] += sp.Dur
			}
		}()
	}
	wg.Wait()
	if got := m.Get(ConfluenceMerges); got != goroutines*perG {
		t.Fatalf("merges = %d, want %d", got, goroutines*perG)
	}
	var want int64
	for _, d := range durs {
		want += d
	}
	if got := m.PhaseDuration(PhaseCheck); int64(got) != want {
		t.Fatalf("check phase = %d ns, want the span sum %d", got, want)
	}
}

// A phase accumulates across its spans (parse runs once per file).
func TestStartPhaseAccumulates(t *testing.T) {
	m := New()
	sp := m.StartSpan(SpanFile, PhaseParse, "a.c", nil, 0)
	time.Sleep(time.Millisecond)
	m.EndSpan(&sp)
	first := m.PhaseDuration(PhaseParse)
	if first <= 0 || int64(first) != sp.Dur {
		t.Fatalf("phase duration = %v, span Dur = %d", first, sp.Dur)
	}
	sp = m.StartSpan(SpanFile, PhaseParse, "b.c", nil, 0)
	m.EndSpan(&sp)
	if m.PhaseDuration(PhaseParse) < first {
		t.Fatal("second interval did not accumulate")
	}
}

func TestSnapshotNames(t *testing.T) {
	m := New()
	m.Add(TokensLexed, 7)
	mod := m.StartSpan(SpanModule, NumPhases, "m.c", nil, 0)
	sema := m.StartSpan(SpanPhase, PhaseSema, "sema", &mod, 0)
	time.Sleep(time.Millisecond)
	m.EndSpan(&sema)
	m.EndSpan(&mod)
	s := m.Snapshot()
	if s.Counters["tokens_lexed"] != 7 {
		t.Fatalf("tokens_lexed = %d", s.Counters["tokens_lexed"])
	}
	if s.PhasesNS["sema"] != sema.Dur || sema.Dur <= 0 {
		t.Fatalf("sema = %d, span Dur %d", s.PhasesNS["sema"], sema.Dur)
	}
	if s.TotalNS != mod.Dur || s.TotalNS < s.PhasesNS["sema"] {
		t.Fatalf("total = %d, module span %d, sema %d", s.TotalNS, mod.Dur, s.PhasesNS["sema"])
	}
	for _, name := range []string{"preprocess", "parse", "sema", "cfg", "check",
		"cache_lookup", "fncache", "validate", "cache_write"} {
		if _, ok := s.PhasesNS[name]; !ok {
			t.Errorf("snapshot lacks phase %q", name)
		}
	}
	// The snapshot must serialize cleanly.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
}

func TestJSONLTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	m := New()
	m.EnableSpans()
	sp := m.StartSpan(SpanFunction, PhaseCheck, "f", nil, 0)
	sp.File, sp.Blocks, sp.Edges, sp.Merges = "a.c", 3, 4, 1
	m.EndSpan(&sp)
	spans := m.Spans()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Funcs(spans)
		}()
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var ev FuncEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if ev.Func != "f" || ev.File != "a.c" || ev.Blocks != 3 || ev.Edges != 4 || ev.Merges != 1 || ev.DurationNS != sp.Dur {
			t.Fatalf("bad event: %+v", ev)
		}
	}
	if lines != 8 {
		t.Fatalf("lines = %d, want 8", lines)
	}
}

// errWriter fails after the first write.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, &json.UnsupportedValueError{Str: "sink failed"}
	}
	return len(p), nil
}

func TestJSONLTracerRetainsFirstError(t *testing.T) {
	tr := NewJSONLTracer(&errWriter{})
	tr.Diag(DiagEvent{Code: "a"})
	tr.Diag(DiagEvent{Code: "b"})
	tr.Diag(DiagEvent{Code: "c"}) // dropped silently
	if tr.Err() == nil {
		t.Fatal("expected retained error")
	}
	if !strings.Contains(tr.Err().Error(), "sink failed") {
		t.Fatalf("unexpected error: %v", tr.Err())
	}
}

// The check fan-out's phase span is the check-wall clock; with the jobs
// gauge it is nil-safe, atomic, and visible in snapshots (the wall-vs-CPU
// split the parallel engine reports).
func TestCheckWallAndJobs(t *testing.T) {
	var nilM *Metrics
	nilM.SetJobs(4)
	sp := nilM.StartSpan(SpanPhase, PhaseCheck, "check", nil, 0)
	nilM.EndSpan(&sp)
	if nilM.Snapshot().CheckWallNS != 0 || nilM.Jobs() != 0 {
		t.Fatal("nil metrics not zero")
	}

	m := New()
	var sum int64
	for i := 0; i < 2; i++ {
		sp := m.StartSpan(SpanPhase, PhaseCheck, "check", nil, 0)
		time.Sleep(time.Millisecond)
		m.EndSpan(&sp)
		sum += sp.Dur
	}
	m.SetJobs(8)
	if m.Jobs() != 8 {
		t.Fatalf("jobs = %d", m.Jobs())
	}
	snap := m.Snapshot()
	if snap.CheckWallNS != sum || sum < int64(2*time.Millisecond) || snap.Jobs != 8 {
		t.Fatalf("snapshot: check_wall_ns=%d (spans %d) jobs=%d", snap.CheckWallNS, sum, snap.Jobs)
	}
	// The wall clock is not per-worker time: the phase total stays empty.
	if snap.PhasesNS["check"] != 0 {
		t.Fatalf("check region span leaked %d ns into phases_ns", snap.PhasesNS["check"])
	}
}

// Concurrent workers closing function spans inside one check region, with
// counters alongside (run under -race).
func TestConcurrentCheckWall(t *testing.T) {
	m := New()
	region := m.StartSpan(SpanPhase, PhaseCheck, "check", nil, 0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := m.StartSpan(SpanFunction, PhaseCheck, "f", &region, i)
				m.EndSpan(&sp)
				m.Add(FunctionsChecked, 1)
			}
		}()
	}
	wg.Wait()
	m.EndSpan(&region)
	snap := m.Snapshot()
	if snap.CheckWallNS != region.Dur || snap.CheckWallNS < snap.PhasesNS["check"]/16 {
		t.Fatalf("check wall = %d, region %d, check phase %d", snap.CheckWallNS, region.Dur, snap.PhasesNS["check"])
	}
	if got := m.Get(FunctionsChecked); got != 1600 {
		t.Fatalf("functions = %d, want 1600", got)
	}
}

// Fan-out region spans feed the per-phase wall clocks and surface as
// preprocess_wall_ns, parse_wall_ns and check_wall_ns; a serial phase span
// (sema) feeds phases_ns instead.
func TestPhaseWall(t *testing.T) {
	m := New()
	walls := map[Phase]int64{}
	for _, p := range []Phase{PhasePreprocess, PhaseParse, PhaseCheck, PhaseSema} {
		sp := m.StartSpan(SpanPhase, p, p.String(), nil, 0)
		time.Sleep(time.Millisecond)
		m.EndSpan(&sp)
		walls[p] = sp.Dur
	}
	snap := m.Snapshot()
	if snap.PreprocessWallNS != walls[PhasePreprocess] {
		t.Errorf("preprocess_wall_ns = %d, want %d", snap.PreprocessWallNS, walls[PhasePreprocess])
	}
	if snap.ParseWallNS != walls[PhaseParse] {
		t.Errorf("parse_wall_ns = %d, want %d", snap.ParseWallNS, walls[PhaseParse])
	}
	if snap.CheckWallNS != walls[PhaseCheck] {
		t.Errorf("check_wall_ns = %d, want %d", snap.CheckWallNS, walls[PhaseCheck])
	}
	if snap.PhasesNS["sema"] != walls[PhaseSema] {
		t.Errorf("sema = %d, want %d", snap.PhasesNS["sema"], walls[PhaseSema])
	}
	for _, p := range []string{"preprocess", "parse", "check"} {
		if snap.PhasesNS[p] != 0 {
			t.Errorf("fan-out region span leaked into phases_ns[%s] = %d", p, snap.PhasesNS[p])
		}
	}
}

// Timing a region allocates nothing on a nil Metrics and on one that
// collects metrics without recording spans (the daemon's per-request
// path), nested regions included.
func TestSpanAllocs(t *testing.T) {
	for name, m := range map[string]*Metrics{"nil": nil, "metrics": New()} {
		allocs := testing.AllocsPerRun(100, func() {
			fn := m.StartSpan(SpanFunction, PhaseCheck, "f", nil, 0)
			cfg := m.StartSpan(SpanPhase, PhaseCFG, "cfg", &fn, 0)
			m.EndSpan(&cfg)
			fn.File, fn.Line, fn.Blocks = "a.c", 3, 7
			m.EndSpan(&fn)
		})
		if allocs != 0 {
			t.Errorf("%s: a timed region allocates %v times, want 0", name, allocs)
		}
	}
}

// A cfg span nested in a function span is counted once, as cfg: its time
// is taken out of the function's check time, so phases stay disjoint.
func TestNestedSpanDisjoint(t *testing.T) {
	m := New()
	fn := m.StartSpan(SpanFunction, PhaseCheck, "f", nil, 0)
	cfg := m.StartSpan(SpanPhase, PhaseCFG, "cfg", &fn, 0)
	time.Sleep(2 * time.Millisecond)
	m.EndSpan(&cfg)
	m.EndSpan(&fn)
	check, cfgNS := int64(m.PhaseDuration(PhaseCheck)), int64(m.PhaseDuration(PhaseCFG))
	if cfgNS != cfg.Dur || cfgNS < int64(2*time.Millisecond) {
		t.Errorf("cfg phase = %d, cfg span %d", cfgNS, cfg.Dur)
	}
	if check != fn.Dur-cfg.Dur {
		t.Errorf("check phase = %d, want function %d minus cfg %d", check, fn.Dur, cfg.Dur)
	}
	if check+cfgNS != fn.Dur {
		t.Errorf("check+cfg = %d, want the function span %d", check+cfgNS, fn.Dur)
	}
}
