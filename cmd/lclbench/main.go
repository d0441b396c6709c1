// Command lclbench regenerates the paper's evaluation (experiments E1-E14
// in DESIGN.md and EXPERIMENTS.md) and the extension experiments E15-E23.
// Each subcommand prints one experiment; "all" runs the full set.
//
// The performance experiments (E9, E10, E15-E23) are scenarios. Each one
// prints its table, writes one golclint-bench/v1 record to
// BENCH_<scenario>.json in the current directory, and checks the record
// against its gate. lclbench exits 1 when any gate condition fails.
//
// Usage:
//
//	lclbench [-jobs n] [-quick] [experiment|scenario|all]
//
//	-jobs n   highest worker count the parallel scenario sweeps to
//	          (0 = GOMAXPROCS)
//	-quick    run the scenarios (all, or the one named) on small corpora,
//	          the CI smoke mode; gate conditions that need the full-size
//	          corpus are skipped
//
// Experiments: samples, listaddh, ercdb, economy, staticvsdynamic,
// nofixpoint. Scenarios: scaling, modular, parallel, incremental, state,
// frontend, provenance, validate, serve, distributed, editloop.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"golclint/internal/atomicio"
	"golclint/internal/cfg"
	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/diag"
	"golclint/internal/ercdb"
	"golclint/internal/flags"
	"golclint/internal/interp"
	"golclint/internal/testgen"
)

// schema tags every record lclbench writes.
const schema = "golclint-bench/v1"

// A record is one scenario run, written to BENCH_<scenario>.json.
type record struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	Scenario   string `json:"scenario"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Quick marks a -quick run, Race a binary built with -race.
	Quick bool `json:"quick"`
	Race  bool `json:"race,omitempty"`
	// ElapsedNS is the scenario's wall time and AllocBytes the heap it
	// allocated (MemStats.TotalAlloc delta). PeakHeapBytes is the heap
	// obtained from the OS by its end (MemStats.HeapSys), an upper bound on
	// the peak live heap.
	ElapsedNS     int64  `json:"elapsed_ns"`
	AllocBytes    uint64 `json:"alloc_bytes"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// Metrics are the scenario's figures, Checks its parity and identity
	// outcomes, and Rows the points of a ladder: corpus sizes, worker
	// counts or cache passes.
	Metrics map[string]float64   `json:"metrics"`
	Checks  map[string]bool      `json:"checks,omitempty"`
	Rows    []map[string]float64 `json:"rows,omitempty"`
}

// metric returns the named metric, or NaN when the record lacks it, so
// that any comparison a gate makes on a missing figure fails.
func (r *record) metric(name string) float64 {
	if v, ok := r.Metrics[name]; ok {
		return v
	}
	return math.NaN()
}

// row returns the named figure of ladder row i, or NaN when it is absent.
func (r *record) row(i int, name string) float64 {
	if i < len(r.Rows) {
		if v, ok := r.Rows[i][name]; ok {
			return v
		}
	}
	return math.NaN()
}

// A cond is one gate condition, named in the record's own metric and
// check names.
type cond struct {
	name string
	// timing marks a wall-clock comparison. Its outcome depends on the
	// host, so go test leaves it to the lclbench binary.
	timing bool
	// full marks a condition that needs the full-size corpus.
	full bool
	// pooled marks an allocation figure that relies on sync.Pool keeping
	// what is put back. Under the race detector the pool drops items at
	// random, so race-built records skip it.
	pooled bool
	holds  func(r *record) bool
}

// isTrue is the condition that the named check passed.
func isTrue(check string) cond {
	return cond{name: check, holds: func(r *record) bool { return r.Checks[check] }}
}

// violations returns the conditions of gate that r fails. Full-size
// conditions are skipped on quick records, pooled ones on race-built
// records, and timing conditions unless timing is set.
func violations(gate []cond, r *record, timing bool) []cond {
	var failed []cond
	for _, c := range gate {
		if (c.full && r.Quick) || (c.pooled && r.Race) || (c.timing && !timing) {
			continue
		}
		if !c.holds(r) {
			failed = append(failed, c)
		}
	}
	return failed
}

// A scenario is one performance experiment. run fills a record at full or
// quick size; gate lists the conditions that record must meet.
type scenario struct {
	name, id, title string
	run             func(r *record, quick bool) error
	gate            []cond
}

// measure runs s and returns its stamped record.
func measure(s *scenario, quick bool) (*record, error) {
	header(s.id, s.title)
	r := &record{
		Schema: schema, Experiment: s.id, Scenario: s.name,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Quick: quick, Race: raceEnabled, Metrics: map[string]float64{}, Checks: map[string]bool{},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := s.run(r, quick)
	r.ElapsedNS = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	r.AllocBytes = after.TotalAlloc - before.TotalAlloc
	r.PeakHeapBytes = after.HeapSys
	return r, err
}

// writeRecord writes r to dir/BENCH_<scenario>.json.
func writeRecord(dir string, r *record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+r.Scenario+".json")
	if err := atomicio.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runScenario measures s, writes its record into dir and checks every
// gate condition, reporting whether the scenario passed.
func runScenario(s *scenario, quick bool, dir string) bool {
	r, err := measure(s, quick)
	if err == nil {
		err = writeRecord(dir, r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lclbench: %s: %v\n", s.name, err)
		return false
	}
	failed := violations(s.gate, r, true)
	for _, c := range failed {
		fmt.Fprintf(os.Stderr, "lclbench: %s gate failed: %s%s\n", s.id, c.name, r.values(c.name))
	}
	return len(failed) == 0
}

// values lists the record's metrics named in a condition, for failure
// messages.
func (r *record) values(condName string) string {
	var parts []string
	for _, w := range strings.FieldsFunc(condName, func(c rune) bool {
		return c != '_' && c != '.' && (c < 'a' || c > 'z') && (c < '0' || c > '9')
	}) {
		if v, ok := r.Metrics[w]; ok {
			parts = append(parts, fmt.Sprintf("%s=%g", w, v))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, ", ") + ")"
}

// experiments are the paper's text experiments; they print and gate
// nothing.
var experiments = []struct {
	name string
	run  func()
}{
	{"samples", runSamples},
	{"listaddh", runListAddh},
	{"ercdb", runErcDB},
	{"economy", runEconomy},
	{"staticvsdynamic", runStaticVsDynamic},
	{"nofixpoint", runNoFixpoint},
}

// maxJobs is the highest worker count the parallel scenario sweeps to
// (set by -jobs; 0 means GOMAXPROCS).
var maxJobs = 0

func main() {
	fs := flag.NewFlagSet("lclbench", flag.ExitOnError)
	jobs := fs.Int("jobs", 0, "highest worker count for the parallel scenario (0 = GOMAXPROCS)")
	quick := fs.Bool("quick", false, "run the scenarios on small corpora (CI smoke)")
	_ = fs.Parse(os.Args[1:])
	maxJobs = *jobs
	name := "all"
	if fs.NArg() > 0 {
		name = fs.Arg(0)
	}
	found, passed := false, true
	if !*quick {
		for _, e := range experiments {
			if name == "all" || name == e.name {
				found = true
				e.run()
			}
		}
	}
	for i := range scenarios {
		if s := &scenarios[i]; name == "all" || name == s.name {
			found = true
			passed = runScenario(s, *quick, ".") && passed
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "lclbench: unknown experiment %q\n", name)
		os.Exit(2)
	}
	if !passed {
		os.Exit(1)
	}
}

func header(id, title string) {
	fmt.Printf("\n=== %s: %s ===\n", id, title)
}

// ---------------------------------------------------------------------------
// E1-E3: the sample.c walkthrough (Figures 1-4).

const sampleNull = `extern char *gname;

void setName (/*@null@*/ char *pname)
{
	gname = pname;
}
`

const sampleTruenull = `extern char *gname;
extern /*@truenull@*/ int isNull (/*@null@*/ char *x);

void setName (/*@null@*/ char *pname)
{
	if (!isNull (pname))
	{
		gname = pname;
	}
}
`

const sampleOnlyTemp = `extern /*@only@*/ char *gname;

void setName (/*@temp@*/ char *pname)
{
	gname = pname;
}
`

func runSamples() {
	header("E1 (Figure 2)", "null parameter assigned to non-null global")
	fmt.Print(core.CheckSource("sample.c", sampleNull, core.Options{}).Messages())
	header("E2 (Figure 3)", "truenull guard removes the anomaly")
	res := core.CheckSource("sample.c", sampleTruenull, core.Options{})
	if len(res.Diags) == 0 {
		fmt.Println("(no messages — anomaly resolved)")
	} else {
		fmt.Print(res.Messages())
	}
	header("E3 (Figure 4)", "only global assigned a temp parameter")
	fmt.Print(core.CheckSource("sample.c", sampleOnlyTemp, core.Options{}).Messages())
}

// ---------------------------------------------------------------------------
// E4: list_addh (Figures 5-6).

const listAddh = `typedef /*@null@*/ struct _list {
	/*@only@*/ char *this;
	/*@null@*/ /*@only@*/ struct _list *next;
} *list;

extern /*@out@*/ /*@only@*/ void *smalloc(unsigned long);

void list_addh(/*@temp@*/ list l, /*@only@*/ char *e)
{
	if (l != NULL)
	{
		while (l->next != NULL)
		{
			l = l->next;
		}
		l->next = (list) smalloc(sizeof(*l->next));
		l->next->this = e;
	}
}
`

func runListAddh() {
	header("E4 (Figures 5-6)", "buggy list_addh: control flow and anomalies")
	res := core.CheckSource("list.c", listAddh, core.Options{})
	for _, u := range res.Units {
		for _, f := range u.Funcs() {
			fmt.Print(cfg.Build(f).Dump())
		}
	}
	fmt.Println()
	fmt.Print(res.Messages())
}

// ---------------------------------------------------------------------------
// E5-E8: the Section 6 employee-database walkthrough.

func runErcDB() {
	header("E5-E8 (Section 6)", "employee database annotation iterations")
	fmt.Printf("%-16s %8s %8s %10s %s\n", "stage", "lines", "annots", "messages", "by category")
	for _, st := range ercdb.Stages() {
		res := core.CheckSources(ercdb.CSources(st), core.Options{
			Includes: cpp.MapIncluder(ercdb.Headers(st)),
		})
		counts := res.CountByCode()
		var keys []diag.Code
		for c := range counts {
			keys = append(keys, c)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		var parts []string
		for _, c := range keys {
			parts = append(parts, fmt.Sprintf("%s=%d", c, counts[c]))
		}
		fmt.Printf("%-16s %8d %8d %10d %s\n", st, ercdb.TotalLines(st),
			ercdb.AnnotationCount(st), len(res.Diags), strings.Join(parts, " "))
	}
	fmt.Println("paper: 15 annotations total (1 null + 1 out + 13 only); final program clean")
}

// ---------------------------------------------------------------------------
// E11: message economy (§7: ~1000 messages on the unannotated program,
// nearly all eliminated by a few annotations).

func runEconomy() {
	header("E11 (Section 7)", "annotation economy: messages before/after annotating")
	fl := flags.Default()
	fl.ImplicitOnly = false
	for _, modules := range []int{8, 32, 64} {
		bare := testgen.Generate(testgen.Config{Seed: 44, Modules: modules, FuncsPer: 10})
		ann := testgen.Generate(testgen.Config{Seed: 44, Modules: modules, FuncsPer: 10, Annotate: true})
		resBare := core.CheckSources(bare.Files, core.Options{Flags: fl.Clone(), Includes: cpp.MapIncluder(bare.Headers)})
		resAnn := core.CheckSources(ann.Files, core.Options{Flags: fl.Clone(), Includes: cpp.MapIncluder(ann.Headers)})
		annots := 3 * modules // only/null markers per module (create+destroy+field)
		fmt.Printf("%6d lines: unannotated %4d messages -> annotated %3d messages (~%d annotations, %.1f messages per annotation)\n",
			bare.Lines, len(resBare.Diags), len(resAnn.Diags), annots,
			float64(len(resBare.Diags)-len(resAnn.Diags))/float64(annots))
	}
	fmt.Println("paper shape: adding one annotation eliminates many messages")
}

// ---------------------------------------------------------------------------
// E13: static vs run-time detection under partial test coverage.

func runStaticVsDynamic() { runStaticVsDynamicConfig(6, 4, 4, []int{0, 25, 50, 100}) }

// runStaticVsDynamicConfig is runStaticVsDynamic with a configurable corpus
// and coverage sweep. The interpreter baseline is minutes-scale at the full
// configuration on small machines, so the package test exercises a reduced
// one (the committed full run records the headline table).
func runStaticVsDynamicConfig(modules, funcsPer, bugsEach int, fracs []int) {
	header("E13 (Section 1/7)", "seeded-bug recall: static checker vs run-time baseline")
	bugMix := map[testgen.BugKind]int{
		testgen.BugLeak: bugsEach, testgen.BugCondLeak: bugsEach, testgen.BugUseAfterFree: bugsEach,
		testgen.BugDoubleFree: bugsEach, testgen.BugNullDeref: bugsEach, testgen.BugUninit: bugsEach,
	}
	p := testgen.Generate(testgen.Config{
		Seed: 45, Modules: modules, FuncsPer: funcsPer, Annotate: true, WithDriver: true, Bugs: bugMix,
	})
	total := len(p.Bugs)

	res := core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers)})
	staticFound := 0
	for _, b := range p.Bugs {
		for _, d := range res.Diags {
			if d.Pos.File == b.File {
				staticFound++
				break
			}
		}
	}

	fmt.Printf("%d seeded bugs across %d modules (%d lines)\n", total, modules, p.Lines)
	fmt.Printf("%-28s %8s\n", "detector", "found")
	fmt.Printf("%-28s %5d/%d\n", "static (no test cases)", staticFound, total)
	for _, frac := range fracs {
		n := total * frac / 100
		var covered []int
		for i := 0; i < n; i++ {
			covered = append(covered, i)
		}
		pc := p.SetCoverage(covered)
		resC := core.CheckSources(pc.Files, core.Options{Includes: cpp.MapIncluder(pc.Headers)})
		run := interp.New(resC.Program, interp.Options{}).Run("main")
		dynFound := len(run.Leaks)
		for range run.Errors {
			dynFound++
		}
		if dynFound > n {
			dynFound = n // one detection per covered bug at most, for the table
		}
		fmt.Printf("run-time, %3d%% coverage       %5d/%d\n", frac, dynFound, total)
	}
	fmt.Println("paper shape: run-time detection is bounded by test coverage; static is not")
}

// ---------------------------------------------------------------------------
// E14: no fixpoint iteration — deeply nested loops cost the same as
// straight-line code of equal size.

func runNoFixpoint() {
	header("E14 (Section 2/5)", "single-pass analysis: loop nesting does not change cost")
	mkNested := func(depth int) string {
		var b strings.Builder
		b.WriteString("void f(int n) {\nint x;\nx = 0;\n")
		for i := 0; i < depth; i++ {
			b.WriteString("while (x < n) {\n")
		}
		b.WriteString("x = x + 1;\n")
		for i := 0; i < depth; i++ {
			b.WriteString("}\n")
		}
		b.WriteString("}\n")
		return b.String()
	}
	mkFlat := func(n int) string {
		var b strings.Builder
		b.WriteString("void f(int n) {\nint x;\nx = 0;\n")
		for i := 0; i < n; i++ {
			b.WriteString("x = x + 1;\n")
		}
		b.WriteString("}\n")
		return b.String()
	}
	timeCheck := func(src string) time.Duration {
		start := time.Now()
		for i := 0; i < 50; i++ {
			core.CheckSource("f.c", src, core.Options{})
		}
		return time.Since(start) / 50
	}
	for _, depth := range []int{4, 16, 64} {
		nested := timeCheck(mkNested(depth))
		flat := timeCheck(mkFlat(2*depth + 1))
		fmt.Printf("depth %3d: nested loops %8v, straight-line same size %8v (ratio %.2f)\n",
			depth, nested, flat, float64(nested)/float64(flat))
	}
	fmt.Println("paper shape: an iterative fixpoint would be superlinear in depth; a single pass is not")
}
