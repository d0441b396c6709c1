package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"golclint/internal/cache"
	"golclint/internal/cli"
	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/diag"
	"golclint/internal/flags"
	"golclint/internal/library"
	"golclint/internal/obs"
	"golclint/internal/server"
	"golclint/internal/testgen"
	"golclint/internal/validate"
)

// scenarios are the performance experiments, in experiment order. Each
// gate holds the conditions its record must meet, named in the record's
// metric and check names (EXPERIMENTS.md tabulates them).
var scenarios = []scenario{
	{
		name: "scaling", id: "E9", title: "checking time vs program size (Section 7)",
		run: runScaling,
	},
	{
		name: "modular", id: "E10", title: "whole-program vs modular re-check (Section 7)",
		run: runModular,
		gate: []cond{
			{name: "counters.library_entries_loaded == library_entries", holds: func(r *record) bool {
				return r.metric("counters.library_entries_loaded") == r.metric("library_entries")
			}},
		},
	},
	{
		name: "parallel", id: "E15", title: "parallel per-function checking: wall-clock vs workers (Section 7)",
		run: runParallel,
		gate: []cond{
			isTrue("messages_identical"),
			{name: "messages > 0", holds: func(r *record) bool { return r.metric("messages") > 0 }},
		},
	},
	{
		name: "incremental", id: "E16", title: "incremental re-checking with the persistent analysis cache",
		run: runIncremental,
		gate: []cond{
			isTrue("messages_identical"),
			{name: "messages > 0", holds: func(r *record) bool { return r.metric("messages") > 0 }},
			{name: "cold pass: cache_hits == 0, cache_misses == modules", holds: func(r *record) bool {
				return r.row(0, "cache_hits") == 0 && r.row(0, "cache_misses") == r.metric("modules")
			}},
			{name: "warm pass: cache_hits == modules, cache_misses == 0", holds: func(r *record) bool {
				return r.row(1, "cache_hits") == r.metric("modules") && r.row(1, "cache_misses") == 0
			}},
			{name: "dirty pass: cache_hits == modules - 1, cache_misses == 1", holds: func(r *record) bool {
				return r.row(2, "cache_hits") == r.metric("modules")-1 && r.row(2, "cache_misses") == 1
			}},
			{name: "speedup_warm > 1", timing: true, holds: func(r *record) bool { return r.metric("speedup_warm") > 1 }},
			{name: "speedup_dirty > 1", timing: true, holds: func(r *record) bool { return r.metric("speedup_dirty") > 1 }},
		},
	},
	{
		name: "state", id: "E17", title: "interned-reference dense store: check-phase cost",
		run: runState,
		gate: []cond{
			{name: "allocs_per_op <= 1.2 * budget_allocs_per_op", holds: func(r *record) bool {
				return r.metric("allocs_per_op") <= 1.2*r.metric("budget_allocs_per_op")
			}},
			{name: "5 * allocs_per_op <= baseline_allocs_per_op", holds: func(r *record) bool {
				return 5*r.metric("allocs_per_op") <= r.metric("baseline_allocs_per_op")
			}},
		},
	},
	{
		name: "frontend", id: "E18", title: "parallel zero-copy frontend: preprocess+parse cost",
		run: runFrontend,
		gate: []cond{
			{name: "allocs_per_op <= 1.2 * budget_allocs_per_op", holds: func(r *record) bool {
				return r.metric("allocs_per_op") <= 1.2*r.metric("budget_allocs_per_op")
			}},
			{name: "5 * allocs_per_op <= baseline_allocs_per_op", holds: func(r *record) bool {
				return 5*r.metric("allocs_per_op") <= r.metric("baseline_allocs_per_op")
			}},
		},
	},
	{
		name: "provenance", id: "E19", title: "diagnostic provenance: recording overhead",
		run: runProvenance,
		gate: []cond{
			{name: "off_allocs_per_op <= 1.2 * budget_allocs_per_op", holds: func(r *record) bool {
				return r.metric("off_allocs_per_op") <= 1.2*r.metric("budget_allocs_per_op")
			}},
			{name: "witnessed == diags > 0", holds: func(r *record) bool {
				return r.metric("diags") > 0 && r.metric("witnessed") == r.metric("diags")
			}},
		},
	},
	{
		name: "validate", id: "E20", title: "counterexample validation: confirmed rate and cost",
		run: runValidate,
		gate: []cond{
			{name: "seeded_confirmed == seeded_total > 0", holds: func(r *record) bool {
				return r.metric("seeded_total") > 0 && r.metric("seeded_confirmed") == r.metric("seeded_total")
			}},
			{name: "confirmed_rate >= 0.8", holds: func(r *record) bool { return r.metric("confirmed_rate") >= 0.8 }},
			{name: "validate_ns_per_op <= budget_ns_per_op", timing: true, holds: func(r *record) bool {
				return r.metric("validate_ns_per_op") <= r.metric("budget_ns_per_op")
			}},
		},
	},
	{
		name: "serve", id: "E21", title: "analysis server: warm request latency vs cold CLI",
		run: runServe,
		gate: []cond{
			{name: "warm_p50_ns > 0", holds: func(r *record) bool { return r.metric("warm_p50_ns") > 0 }},
			{name: "warm_p99_ns >= warm_p50_ns", holds: func(r *record) bool {
				return r.metric("warm_p99_ns") >= r.metric("warm_p50_ns")
			}},
			{name: "memo_hits > 0", holds: func(r *record) bool { return r.metric("memo_hits") > 0 }},
			{name: "speedup_warm >= 5", timing: true, holds: func(r *record) bool { return r.metric("speedup_warm") >= 5 }},
		},
	},
	{
		name: "distributed", id: "E22", title: "distributed sharded checking over a shared remote cache",
		run: runDistributed,
		gate: []cond{
			isTrue("parity_cold"),
			isTrue("parity_warm"),
			isTrue("parity_explain"),
			isTrue("parity_validate"),
			isTrue("warm_replay_identical"),
			{name: "compression_ratio >= 2", holds: func(r *record) bool { return r.metric("compression_ratio") >= 2 }},
			{name: "ladder rows >= 2", holds: func(r *record) bool { return len(r.Rows) >= 2 }},
			{name: "ms_per_kloc_ratio <= 2", timing: true, holds: func(r *record) bool { return r.metric("ms_per_kloc_ratio") <= 2 }},
			{name: "fleet_lines >= 1000000", full: true, holds: func(r *record) bool { return r.metric("fleet_lines") >= 1e6 }},
			{name: "fleet_modules >= 1000", full: true, holds: func(r *record) bool { return r.metric("fleet_modules") >= 1000 }},
			{name: "fleet_speedup >= 5", full: true, timing: true, holds: func(r *record) bool { return r.metric("fleet_speedup") >= 5 }},
		},
	},
	{
		name: "editloop", id: "E23", title: "function-granular incremental checking: the editloop",
		run: runEditloop,
		gate: []cond{
			{name: "func_cache_misses == 1", holds: func(r *record) bool { return r.metric("func_cache_misses") == 1 }},
			{name: "func_cache_hits > 0", holds: func(r *record) bool { return r.metric("func_cache_hits") > 0 }},
			{name: "annot_edit_func_misses > 1", holds: func(r *record) bool { return r.metric("annot_edit_func_misses") > 1 }},
			isTrue("parity_plain"),
			isTrue("parity_explain"),
			isTrue("parity_validate"),
			{name: "cold_fn_extra_alloc_per_entry <= 65536", pooled: true, holds: func(r *record) bool {
				return r.metric("cold_fn_extra_alloc_per_entry") <= 65536
			}},
			{name: "cold_fn_cost_ratio <= 1.2", full: true, timing: true, holds: func(r *record) bool {
				return r.metric("cold_fn_cost_ratio") <= 1.2
			}},
			{name: "speedup_dirty >= speedup_gate", full: true, timing: true, holds: func(r *record) bool {
				return r.metric("speedup_dirty") >= r.metric("speedup_gate")
			}},
		},
	},
}

// measureRow runs one measured step, returning its wall-clock time and
// the heap it allocated, so alloc figures are attributable per step.
func measureRow(f func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.TotalAlloc - before.TotalAlloc
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// addSnapshot copies an instrumented run's phase times and counters into
// figures, under the names golclint -stats-json gives them.
func addSnapshot(figures map[string]float64, s obs.Snapshot) {
	for k, v := range s.PhasesNS {
		figures["phases_ns."+k] = float64(v)
	}
	for k, v := range s.Counters {
		figures["counters."+k] = float64(v)
	}
}

// ---------------------------------------------------------------------------
// E9: checking time scales ~linearly with program size (§7: 100k lines in
// under four minutes on a DEC 3000/500). One row per program size.

func runScaling(r *record, quick bool) error {
	sizes := []int{2, 8, 32, 64, 128}
	if quick {
		sizes = []int{2, 4}
	}
	fmt.Printf("%10s %8s %12s %12s %10s\n", "lines", "modules", "check(ms)", "ms/kloc", "messages")
	for _, modules := range sizes {
		p := testgen.Generate(testgen.Config{
			Seed: 42, Modules: modules, FuncsPer: 10, Annotate: true,
			Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
		})
		m := obs.New()
		var res *core.Result
		elapsed, alloc := measureRow(func() {
			res = core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers), Metrics: m})
		})
		row := map[string]float64{
			"lines": float64(p.Lines), "modules": float64(modules), "check_ms": ms(elapsed),
			"ms_per_kloc": ms(elapsed) / (float64(p.Lines) / 1000),
			"messages":    float64(len(res.Diags)), "alloc_bytes": float64(alloc),
		}
		addSnapshot(row, m.Snapshot())
		fmt.Printf("%10d %8d %12.1f %12.2f %10d\n", p.Lines, modules, ms(elapsed), row["ms_per_kloc"], len(res.Diags))
		r.Rows = append(r.Rows, row)
	}
	fmt.Println("paper shape: time grows ~linearly; ms/kloc stays ~flat")
	return nil
}

// ---------------------------------------------------------------------------
// E10: modular re-checking with interface libraries (§7: a 5000-line
// module re-checks in seconds versus minutes for the whole program). The
// module run's phases and counters are recorded.

func runModular(r *record, quick bool) error {
	modules := 64
	if quick {
		modules = 8
	}
	p := testgen.Generate(testgen.Config{Seed: 43, Modules: modules, FuncsPer: 10, Annotate: true})
	var whole *core.Result
	wholeTime, wholeAlloc := measureRow(func() {
		whole = core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers)})
	})
	lib := library.Build(whole.Program)
	m := obs.New()
	modTime, modAlloc := measureRow(func() {
		library.CheckModule(map[string]string{"mod0.c": p.Files["mod0.c"]}, lib,
			core.Options{Includes: cpp.MapIncluder(p.Headers), Metrics: m})
	})
	modLines := strings.Count(p.Files["mod0.c"], "\n")
	speedup := float64(wholeTime) / float64(modTime)
	fmt.Printf("whole program (%d lines): %v\n", p.Lines, wholeTime)
	fmt.Printf("one module with library (%d lines): %v\n", modLines, modTime)
	fmt.Printf("speedup: %.1fx (library: %s)\n", speedup, lib.Stats())
	fmt.Println("paper shape: module re-check is an order of magnitude faster")
	maps.Copy(r.Metrics, map[string]float64{
		"whole_lines": float64(p.Lines), "whole_ns": float64(wholeTime), "whole_alloc_bytes": float64(wholeAlloc),
		"module_lines": float64(modLines), "module_ns": float64(modTime), "module_alloc_bytes": float64(modAlloc),
		"speedup": speedup, "library_entries": float64(lib.EntryCount()),
	})
	addSnapshot(r.Metrics, m.Snapshot())
	return nil
}

// ---------------------------------------------------------------------------
// E15: parallel per-function checking. The paper's modularity argument (§7:
// each function checked independently from interface annotations) means the
// checking phase parallelizes; this sweeps worker counts (powers of two up
// to -jobs, at least 4) over E9's largest corpus and records the
// wall-vs-CPU split. Speedups depend on the host's cores and are not gated.

func runParallel(r *record, quick bool) error {
	modules, funcsPer := 128, 10
	if quick {
		modules, funcsPer = 8, 6
	}
	ceiling := maxJobs
	if ceiling <= 0 {
		ceiling = max(runtime.GOMAXPROCS(0), 4)
	}
	var sweep []int
	for j := 1; j < ceiling; j *= 2 {
		sweep = append(sweep, j)
	}
	sweep = append(sweep, ceiling)

	p := testgen.Generate(testgen.Config{
		Seed: 42, Modules: modules, FuncsPer: funcsPer, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
	})
	fmt.Printf("corpus: %d lines, %d modules\n", p.Lines, modules)
	fmt.Printf("%6s %10s %14s %14s %9s %9s %10s\n",
		"jobs", "wall(ms)", "check.wall(ms)", "check.cpu(ms)", "speedup", "chk.spd", "messages")
	identical := true
	for _, jobs := range sweep {
		m := obs.New()
		var res *core.Result
		elapsed, alloc := measureRow(func() {
			res = core.CheckSources(p.Files, core.Options{
				Includes: cpp.MapIncluder(p.Headers), Metrics: m, Jobs: jobs,
			})
		})
		snap := m.Snapshot()
		row := map[string]float64{
			"jobs": float64(jobs), "wall_ms": ms(elapsed),
			"check_wall_ms": float64(snap.CheckWallNS) / 1e6,
			"check_cpu_ms":  float64(snap.PhasesNS["cfg"]+snap.PhasesNS["check"]) / 1e6,
			"alloc_bytes":   float64(alloc), "messages": float64(len(res.Diags)),
		}
		r.Rows = append(r.Rows, row)
		base := r.Rows[0] // the jobs=1 row
		row["speedup"] = base["wall_ms"] / row["wall_ms"]
		row["check_speedup"] = base["check_wall_ms"] / row["check_wall_ms"]
		identical = identical && row["messages"] == base["messages"]
		r.Metrics["functions"] = float64(snap.Counters["functions_checked"])
		fmt.Printf("%6d %10.1f %14.1f %14.1f %8.2fx %8.2fx %10d\n", jobs, row["wall_ms"],
			row["check_wall_ms"], row["check_cpu_ms"], row["speedup"], row["check_speedup"], len(res.Diags))
	}
	fmt.Println("paper shape: per-function independence turns modularity into wall-clock speedup")
	r.Metrics["messages"] = r.Rows[0]["messages"]
	r.Metrics["lines"], r.Metrics["modules"], r.Metrics["max_jobs"] = float64(p.Lines), float64(modules), float64(ceiling)
	r.Checks["messages_identical"] = identical
	return nil
}

// ---------------------------------------------------------------------------
// E16: incremental re-checking with the persistent analysis cache. An
// unchanged module replays its stored diagnostics without re-analysis, so a
// warm run costs only preprocessing + hashing; editing one module re-checks
// that module alone. This is the development-loop complement to E10's
// interface libraries. Rows are the cold, warm and one-module-dirty passes,
// in that order, at jobs 1 so their ratios measure the cache alone.

func runIncremental(r *record, quick bool) error {
	modules := 50
	if quick {
		modules = 8
	}
	cacheDir, err := os.MkdirTemp("", "golclint-bench-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	c, err := cache.Open(cacheDir)
	if err != nil {
		return err
	}
	p := testgen.Generate(testgen.Config{
		Seed: 46, Modules: modules, FuncsPer: 10, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
	})
	// Interface facts come from the annotated headers, as in a real
	// incremental build: the library is built once and shared.
	lib := library.Build(core.CheckSources(p.Headers, core.Options{}).Program)
	mods := map[string]map[string]string{}
	for name, src := range p.Files {
		mods[name] = map[string]string{name: src}
	}

	fmt.Printf("corpus: %d lines, %d modules\n", p.Lines, modules)
	fmt.Printf("%8s %10s %8s %8s %12s %10s\n", "pass", "wall(ms)", "hits", "misses", "cache(B)", "messages")
	identical := true
	for _, pass := range []string{"cold", "warm", "dirty"} {
		if pass == "dirty" {
			// Implementation-only edit to one module: exactly one re-check.
			mods["mod0.c"] = map[string]string{"mod0.c": p.Files["mod0.c"] + "\nint e16_dirty_marker;\n"}
		}
		m := obs.New()
		var results map[string]*core.Result
		elapsed, alloc := measureRow(func() {
			results = library.CheckModules(mods, lib, core.Options{
				Includes: cpp.MapIncluder(p.Headers), Cache: c, Metrics: m, Jobs: 1,
			})
		})
		messages := 0
		for _, res := range results {
			messages += len(res.Diags)
		}
		row := map[string]float64{
			"wall_ms": ms(elapsed), "cache_hits": float64(m.Get(obs.CacheHits)),
			"cache_misses": float64(m.Get(obs.CacheMisses)), "cache_bytes": float64(m.Get(obs.CacheBytes)),
			"messages": float64(messages), "alloc_bytes": float64(alloc),
		}
		r.Rows = append(r.Rows, row)
		identical = identical && row["messages"] == r.Rows[0]["messages"]
		fmt.Printf("%8s %10.1f %8d %8d %12d %10d\n", pass, row["wall_ms"],
			m.Get(obs.CacheHits), m.Get(obs.CacheMisses), m.Get(obs.CacheBytes), messages)
	}
	r.Metrics["messages"] = r.Rows[0]["messages"]
	r.Metrics["modules"], r.Metrics["lines"], r.Metrics["jobs"] = float64(modules), float64(p.Lines), 1
	r.Metrics["speedup_warm"] = r.Rows[0]["wall_ms"] / r.Rows[1]["wall_ms"]
	r.Metrics["speedup_dirty"] = r.Rows[0]["wall_ms"] / r.Rows[2]["wall_ms"]
	r.Checks["messages_identical"] = identical
	fmt.Printf("warm %.1fx, one-module-dirty %.1fx faster than cold\n",
		r.Metrics["speedup_warm"], r.Metrics["speedup_dirty"])
	fmt.Println("paper shape: unchanged modules replay from the cache; editing touches only what changed")
	return nil
}

// ---------------------------------------------------------------------------
// E17 and E18 measure the check phase and the frontend alone over E9's
// 32-module corpus at every size, so their committed allocation budgets
// mean the same thing in full and quick runs. Allocation counts, unlike
// timings, hold on any machine: the gates allow 20% over the budget and
// require 5× fewer allocations than the implementation each replaced.

// e17Corpus is the E9 reference corpus E17-E19 measure.
func e17Corpus() *testgen.Program {
	return testgen.Generate(testgen.Config{
		Seed: 42, Modules: 32, FuncsPer: 10, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 16},
	})
}

// perOp runs f iters times and returns the mean wall time, bytes and
// allocations per run.
func perOp(iters int, f func()) (ns, bytes, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return float64(elapsed.Nanoseconds()) / n, float64(after.TotalAlloc-before.TotalAlloc) / n,
		float64(after.Mallocs-before.Mallocs) / n
}

const (
	// stateBudgetAllocsPerOp is the committed check-phase allocation budget
	// on the E17 workload.
	stateBudgetAllocsPerOp = 17000

	// stateBaseline* record the string-keyed map store's cost on the same
	// workload and machine class, measured at the commit that replaced it
	// (the "before" column of EXPERIMENTS.md E17).
	stateBaselineCheckNSPerOp = 19938660
	stateBaselineAllocsPerOp  = 135659
)

// E17: the interned-reference dense store, measured on whole-corpus
// CheckProgram passes (parsing and environment construction hoisted out,
// serial workers), plus the copy-on-write counters of one counted pass.
func runState(r *record, quick bool) error {
	iters := 10
	if quick {
		iters = 3
	}
	p := e17Corpus()
	m := obs.New()
	res := core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers), Metrics: m})
	if res.Program == nil {
		return errors.New("E17 corpus failed to parse")
	}
	fl := flags.Default()
	check := func() { core.CheckProgram(res.Program, fl, diag.NewReporter(fl.MaxMessages)) }
	check() // warm code paths before measuring
	ns, bytes, allocs := perOp(iters, check)
	snap := m.Snapshot()
	maps.Copy(r.Metrics, map[string]float64{
		"lines": float64(p.Lines), "modules": 32, "iters": float64(iters),
		"check_ns_per_op": ns, "alloc_bytes_per_op": bytes, "allocs_per_op": allocs,
		"store_clones": float64(snap.Counters["store_clones"]), "refstates_copied": float64(snap.Counters["refstates_copied"]),
		"merge_ns":             float64(snap.Counters["merge_ns"]),
		"budget_allocs_per_op": stateBudgetAllocsPerOp, "baseline_check_ns_per_op": stateBaselineCheckNSPerOp,
		"baseline_allocs_per_op": stateBaselineAllocsPerOp,
	})
	fmt.Printf("corpus: %d lines, %d modules; %d check passes\n", p.Lines, 32, iters)
	fmt.Printf("%-16s %14s %14s %9s\n", "", "map store", "dense store", "ratio")
	fmt.Printf("%-16s %14d %14.0f %8.1fx\n", "check ns/op", stateBaselineCheckNSPerOp, ns, stateBaselineCheckNSPerOp/ns)
	fmt.Printf("%-16s %14d %14.0f %8.1fx\n", "allocs/op", stateBaselineAllocsPerOp, allocs, stateBaselineAllocsPerOp/allocs)
	fmt.Printf("cow: %d clones, %d copies faulted, %.1f ms merging\n", snap.Counters["store_clones"],
		snap.Counters["refstates_copied"], float64(snap.Counters["merge_ns"])/1e6)
	fmt.Printf("committed budget: %d allocs/op (gate fails above +20%%)\n", stateBudgetAllocsPerOp)
	return nil
}

const (
	// frontendBudgetAllocsPerOp is the committed frontend allocation budget
	// on the E18 workload.
	frontendBudgetAllocsPerOp = 6500

	// frontendBaseline* record the serial copying frontend's cost on the
	// same workload and machine class, measured at the commit that replaced
	// it (the "before" column of EXPERIMENTS.md E18): one Preprocessor and
	// parser per file, string-concatenating macro expansion, and a lexer
	// allocating each token's text.
	frontendBaselineNSPerOp     = 9929679
	frontendBaselineAllocsPerOp = 48797
	frontendBaselineBytesPerOp  = 9200635
)

// E18: the parallel zero-copy frontend, measured on whole-corpus
// preprocess+parse passes (core.Frontend, no analysis) at jobs 1, plus the
// wall time of the same pass at jobs 4 and one instrumented pass's phase
// walls.
func runFrontend(r *record, quick bool) error {
	iters := 20
	if quick {
		iters = 3
	}
	p := e17Corpus()
	front := func(jobs int, m *obs.Metrics) func() {
		return func() {
			core.Frontend(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers), Jobs: jobs, Metrics: m})
		}
	}
	front(1, nil)() // warm code paths before measuring
	ns, bytes, allocs := perOp(iters, front(1, nil))
	jobs4NS, _, _ := perOp(iters, front(4, nil))
	m := obs.New()
	front(1, m)()
	snap := m.Snapshot()
	maps.Copy(r.Metrics, map[string]float64{
		"lines": float64(p.Lines), "modules": 32, "iters": float64(iters),
		"frontend_ns_per_op": ns, "alloc_bytes_per_op": bytes, "allocs_per_op": allocs,
		"jobs4_ns_per_op": jobs4NS, "preprocess_wall_ns": float64(snap.PreprocessWallNS),
		"parse_wall_ns": float64(snap.ParseWallNS), "budget_allocs_per_op": frontendBudgetAllocsPerOp,
		"baseline_ns_per_op": frontendBaselineNSPerOp, "baseline_allocs_per_op": frontendBaselineAllocsPerOp,
		"baseline_bytes_per_op": frontendBaselineBytesPerOp,
	})
	fmt.Printf("corpus: %d lines, %d modules; %d frontend passes\n", p.Lines, 32, iters)
	fmt.Printf("%-16s %14s %14s %9s\n", "", "copying", "zero-copy", "ratio")
	fmt.Printf("%-16s %14d %14.0f %8.1fx\n", "frontend ns/op", frontendBaselineNSPerOp, ns, frontendBaselineNSPerOp/ns)
	fmt.Printf("%-16s %14d %14.0f %8.1fx\n", "allocs/op", frontendBaselineAllocsPerOp, allocs, frontendBaselineAllocsPerOp/allocs)
	fmt.Printf("%-16s %14d %14.0f %8.1fx\n", "bytes/op", frontendBaselineBytesPerOp, bytes, frontendBaselineBytesPerOp/bytes)
	fmt.Printf("jobs=4 wall: %.0f ns/op; phase wall: preprocess %.2f ms, parse %.2f ms\n",
		jobs4NS, float64(snap.PreprocessWallNS)/1e6, float64(snap.ParseWallNS)/1e6)
	fmt.Printf("committed budget: %d allocs/op (gate fails above +20%%)\n", frontendBudgetAllocsPerOp)
	return nil
}

// ---------------------------------------------------------------------------
// E19: diagnostic provenance. Measures the check phase over the E17 corpus
// with witness recording off (what every default run pays) and on (the
// -explain price), interleaved so machine drift hits both equally: the
// fastest pass of each mode, mean allocations. The off path is held to the
// E17 allocation budget, and every diagnostic of a recording pass must
// carry a witness.

func runProvenance(r *record, _ bool) error {
	const iters = 10
	p := e17Corpus()
	res := core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers)})
	if res.Program == nil {
		return errors.New("E19 corpus failed to parse")
	}
	fl := flags.Default()
	pass := func(explain bool) *diag.Reporter {
		rep := diag.NewReporter(fl.MaxMessages)
		core.CheckProgramExplain(res.Program, fl, rep, explain)
		return rep
	}
	modes := []bool{false, true}
	for _, explain := range modes {
		pass(explain) // warm code paths before measuring
	}
	minNS := [2]int64{math.MaxInt64, math.MaxInt64}
	var mallocs, bytes [2]uint64
	var before, after runtime.MemStats
	for i := 0; i < iters; i++ {
		for j, explain := range modes {
			// Settle the heap so a collection triggered by earlier garbage
			// cannot land inside one mode's pass and skew the comparison.
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			pass(explain)
			minNS[j] = min(minNS[j], time.Since(start).Nanoseconds())
			runtime.ReadMemStats(&after)
			mallocs[j] += after.Mallocs - before.Mallocs
			bytes[j] += after.TotalAlloc - before.TotalAlloc
		}
	}
	witnessed, diags := 0, 0
	for _, d := range pass(true).Diags() {
		diags++
		if d.Prov != nil && len(d.Prov.Steps) > 0 {
			witnessed++
		}
	}
	maps.Copy(r.Metrics, map[string]float64{
		"lines": float64(p.Lines), "modules": 32, "iters": iters,
		"off_check_ns_per_op": float64(minNS[0]), "on_check_ns_per_op": float64(minNS[1]),
		"off_allocs_per_op": float64(mallocs[0]) / iters, "on_allocs_per_op": float64(mallocs[1]) / iters,
		"off_alloc_bytes_per_op": float64(bytes[0]) / iters, "on_alloc_bytes_per_op": float64(bytes[1]) / iters,
		"overhead_on_pct": 100 * float64(minNS[1]-minNS[0]) / float64(minNS[0]),
		"witnessed":       float64(witnessed), "diags": float64(diags), "budget_allocs_per_op": stateBudgetAllocsPerOp,
	})
	fmt.Printf("corpus: %d lines, %d modules; %d passes per mode (interleaved)\n", p.Lines, 32, iters)
	fmt.Printf("%-16s %14s %14s\n", "", "prov off", "prov on")
	fmt.Printf("%-16s %14d %14d\n", "check ns/op", minNS[0], minNS[1])
	fmt.Printf("%-16s %14.0f %14.0f\n", "allocs/op", r.Metrics["off_allocs_per_op"], r.Metrics["on_allocs_per_op"])
	fmt.Printf("recording overhead (on vs off): %+.2f%% wall\n", r.Metrics["overhead_on_pct"])
	fmt.Printf("witnesses: %d/%d diagnostics carry a non-empty path\n", witnessed, diags)
	return nil
}

// ---------------------------------------------------------------------------
// E20: counterexample validation. Checks a seeded corpus covering every bug
// kind with witnesses on, then runs the validation search (internal/validate)
// over the diagnostics and reports the confirmed rate and per-diagnostic
// cost: every seeded bug's diagnostic must validate `confirmed` and the
// fastest whole-corpus pass must fit the committed wall budget.

// validateBudgetNSPerOp is the committed wall budget for one whole-corpus
// validation pass (generous: the measured figure is ~two orders below).
const validateBudgetNSPerOp = 5_000_000_000

func runValidate(r *record, quick bool) error {
	iters := 10
	if quick {
		iters = 3
	}
	bugsEach := 4
	p := testgen.Generate(testgen.Config{
		Seed: 42, Modules: 24, FuncsPer: 8, Annotate: true,
		Bugs: map[testgen.BugKind]int{
			testgen.BugLeak: bugsEach, testgen.BugCondLeak: bugsEach,
			testgen.BugUseAfterFree: bugsEach, testgen.BugDoubleFree: bugsEach,
			testgen.BugNullDeref: bugsEach, testgen.BugUninit: bugsEach,
		},
	})
	res := core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers), Explain: true})
	if res.Program == nil || len(res.ParseErrors) > 0 {
		return errors.New("E20 corpus failed to parse")
	}
	var sum validate.Summary
	minNS := int64(math.MaxInt64)
	for i := 0; i < iters; i++ {
		// Apply skips already-tagged diagnostics (cache replay leaves them
		// tagged); clear the tags so every pass is a full one.
		for _, d := range res.Diags {
			d.Validation = nil
		}
		start := time.Now()
		sum = validate.Apply(res.Program, res.Diags, validate.Options{})
		minNS = min(minNS, time.Since(start).Nanoseconds())
	}
	seededConfirmed := 0
	for _, b := range p.Bugs {
		for _, d := range res.Diags {
			if d.Pos.File == b.File && d.Pos.Line == b.Line &&
				d.Validation != nil && d.Validation.Tag == diag.Confirmed {
				seededConfirmed++
				break
			}
		}
	}
	maps.Copy(r.Metrics, map[string]float64{
		"lines": float64(p.Lines), "modules": 24, "iters": float64(iters),
		"seeded_total": float64(len(p.Bugs)), "seeded_confirmed": float64(seededConfirmed),
		"diags": float64(sum.Examined), "confirmed": float64(sum.Confirmed),
		"infeasible": float64(sum.Infeasible), "unreproduced": float64(sum.Unreproduced),
		"validate_ns_per_op": float64(minNS), "budget_ns_per_op": validateBudgetNSPerOp,
	})
	if sum.Examined > 0 {
		r.Metrics["confirmed_rate"] = float64(sum.Confirmed) / float64(sum.Examined)
		r.Metrics["ns_per_diag"] = float64(minNS / int64(sum.Examined))
	}
	fmt.Printf("corpus: %d lines, %d modules, %d seeded bugs; %d validation passes\n", p.Lines, 24, len(p.Bugs), iters)
	fmt.Printf("diagnostics: %d (%d confirmed, %d path-infeasible, %d unreproduced)\n",
		sum.Examined, sum.Confirmed, sum.Infeasible, sum.Unreproduced)
	fmt.Printf("seeded bugs confirmed: %d/%d\n", seededConfirmed, len(p.Bugs))
	fmt.Printf("confirmed rate: %.3f (gate: >= 0.8)\n", r.Metrics["confirmed_rate"])
	fmt.Printf("validation pass: %d ns/op, %.0f ns/diag (budget %d ns/op)\n",
		minNS, r.Metrics["ns_per_diag"], int64(validateBudgetNSPerOp))
	return nil
}

// ---------------------------------------------------------------------------
// E21: the analysis server. A long-lived daemon keeps the interface library
// and the content-addressed cache resident, so an editor's re-check request
// pays neither process startup nor cold analysis. This compares a cold
// single-shot CLI run over an E9-style corpus against warm requests to a
// live server (same corpus, same checker path), and records warm p50/p99
// and coalescing under concurrent clients.

// serveRounds is how many interleaved cold-CLI/warm-block rounds E21's
// speedup is the median of.
const serveRounds = 7

func runServe(r *record, quick bool) error {
	modules, funcsPer, warmReqs, clients := 32, 10, 60, 4
	if quick {
		modules, funcsPer, warmReqs = 8, 6, 20
	}
	p := testgen.Generate(testgen.Config{
		Seed: 42, Modules: modules, FuncsPer: funcsPer, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
	})

	// The corpus on disk, for the cold CLI baseline.
	dir, err := os.MkdirTemp("", "golclint-bench-serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	paths, err := materializeCorpus(p, dir)
	if err != nil {
		return err
	}

	// Live server on a loopback port, exactly as `golclint -serve` runs it.
	srv, err := server.New(server.Options{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	post := func(req *server.CheckRequest) (time.Duration, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		resp, err := http.Post(base+"/check", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("POST /check: %s", resp.Status)
		}
		return time.Since(start), nil
	}

	// Whole-corpus batch request: the server-side equivalent of a cold
	// CLI run.
	batch := &server.CheckRequest{Files: p.Files, Headers: p.Headers}
	coldServer, err := post(batch)
	if err != nil {
		return err
	}

	// Interleaved rounds: one cold CLI run (the same entry point the
	// golclint binary uses, no cache directory, so it pays the full
	// frontend and analysis), then a block of warm requests. Each round
	// compares its own cold run with its own warm p50, so host drift hits
	// both sides alike; the median round is the speedup.
	var colds, warm []time.Duration
	var ratios []float64
	for round := 0; round < serveRounds; round++ {
		start := time.Now()
		cli.Run(paths, io.Discard, io.Discard)
		cold := time.Since(start)
		block := make([]time.Duration, warmReqs)
		for i := range block {
			if block[i], err = post(batch); err != nil {
				return err
			}
		}
		sort.Slice(block, func(i, j int) bool { return block[i] < block[j] })
		colds = append(colds, cold)
		ratios = append(ratios, float64(cold)/float64(block[len(block)/2]))
		warm = append(warm, block...)
	}
	sort.Slice(colds, func(i, j int) bool { return colds[i] < colds[j] })
	sort.Float64s(ratios)
	sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
	coldCLI := colds[len(colds)/2]
	p50, p99 := warm[len(warm)/2], warm[min(len(warm)*99/100, len(warm)-1)]

	// Concurrent clients over per-module requests (primed once each): the
	// editor-fleet shape. Identical in-flight requests coalesce.
	var perMod []*server.CheckRequest
	for _, name := range sortedKeys(p.Files) {
		req := &server.CheckRequest{Files: map[string]string{name: p.Files[name]}, Headers: p.Headers}
		if _, err := post(req); err != nil {
			return err
		}
		perMod = append(perMod, req)
	}
	burst := clients * 2 * len(perMod)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	burstStart := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*len(perMod) && errs[c] == nil; i++ {
				_, errs[c] = post(perMod[(c+i)%len(perMod)])
			}
		}()
	}
	wg.Wait()
	burstTime := time.Since(burstStart)
	if err := errors.Join(errs...); err != nil {
		return err
	}

	st := srv.StatsSnapshot()
	maps.Copy(r.Metrics, map[string]float64{
		"lines": float64(p.Lines), "modules": float64(modules),
		"cold_cli_ns": float64(coldCLI), "cold_server_ns": float64(coldServer),
		"rounds": serveRounds, "warm_reqs": float64(warmReqs),
		"warm_p50_ns": float64(p50), "warm_p99_ns": float64(p99),
		"speedup_warm": ratios[len(ratios)/2],
		"clients":      float64(clients), "burst_reqs": float64(burst),
		"throughput_rps": float64(burst) / burstTime.Seconds(),
		"coalesced":      float64(st.Coalesced), "memo_hits": float64(st.MemoHits),
		"cache_entries": float64(st.CacheMem.Entries), "cache_bytes": float64(st.CacheMem.Bytes),
	})
	fmt.Printf("corpus: %d lines, %d modules\n", p.Lines, modules)
	fmt.Printf("%-24s %12.1f ms\n", fmt.Sprintf("cold CLI (median of %d)", serveRounds), ms(coldCLI))
	fmt.Printf("%-24s %12.1f ms\n", "cold server request", ms(coldServer))
	fmt.Printf("%-24s %12.2f ms  p99 %.2f ms (%d reqs)\n", "warm server request p50", ms(p50), ms(p99),
		serveRounds*warmReqs)
	fmt.Printf("warm speedup vs cold CLI: %.1fx, median of %d rounds (range %.1f-%.1fx; gate: >= 5x)\n",
		r.Metrics["speedup_warm"], serveRounds, ratios[0], ratios[len(ratios)-1])
	fmt.Printf("%d clients, %d requests: %.0f req/s, %d coalesced, %d memo replays\n",
		clients, burst, r.Metrics["throughput_rps"], st.Coalesced, st.MemoHits)
	fmt.Printf("resident cache: %d entries, %d bytes\n", st.CacheMem.Entries, st.CacheMem.Bytes)
	fmt.Println("paper extension: a resident checker turns whole-corpus re-checks into millisecond requests")
	return nil
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// materializeCorpus writes p's sources and headers into dir, returning the
// sorted .c paths.
func materializeCorpus(p *testgen.Program, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for name, src := range p.AllSources() {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			return nil, err
		}
	}
	var paths []string
	for _, name := range sortedKeys(p.Files) {
		paths = append(paths, filepath.Join(dir, name))
	}
	return paths, nil
}

// ---------------------------------------------------------------------------
// E22: distributed sharded checking over a shared remote cache at
// million-line scale. n worker processes partition the module list with a
// stable hash and coordinate only through the shared cache. The scenario
// shows (a) ms/KLOC stays flat from 10K to 1M+ lines under sharding, (b) a
// cold fleet replaying a warm shared remote cache beats a cold single
// process by the gated factor, (c) merged shard output is byte-identical to
// the single-process run at every shard count, and (d) frame compression at
// least halves cache bytes with byte-identical warm replay. Quick runs keep
// the same shape two orders of magnitude smaller.

// fleetShards is the worker count of E22's ladder and fleet sections.
const fleetShards = 4

func runDistributed(r *record, quick bool) error {
	moduleSizes := []int{20, 200, 2000}
	funcsPer, stmtsPer := 4, 90
	parityModules, compressionModules := 20, 32
	if quick {
		moduleSizes = []int{4, 8, 16}
		funcsPer, stmtsPer = 3, 20
		parityModules, compressionModules = 6, 8
	}
	work, err := os.MkdirTemp("", "golclint-bench-dist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	fmt.Printf("%10s %8s %7s %12s %12s %10s\n", "lines", "modules", "shards", "fleet(ms)", "ms/kloc", "messages")
	for i, modules := range moduleSizes {
		last := i == len(moduleSizes)-1
		if err := distributedRung(r, filepath.Join(work, fmt.Sprint(i)), modules, funcsPer, stmtsPer, last); err != nil {
			return err
		}
	}
	r.Metrics["ms_per_kloc_ratio"] = r.Rows[len(r.Rows)-1]["ms_per_kloc"] / r.Rows[0]["ms_per_kloc"]
	if err := distributedParity(r, filepath.Join(work, "parity"), parityModules); err != nil {
		return err
	}
	if err := distributedCompression(r, filepath.Join(work, "compression"), compressionModules); err != nil {
		return err
	}
	fmt.Printf("cold single %0.1f ms vs cold fleet over warm remote %0.1f ms: %.1fx (gate: >= 5x, full size)\n",
		r.Metrics["cold_single_ns"]/1e6, r.Metrics["cold_fleet_warm_remote_ns"]/1e6, r.Metrics["fleet_speedup"])
	fmt.Println("paper extension: shard workers coordinating only through a shared cache check million-line corpora with flat ms/KLOC")
	return nil
}

// distributedRung checks one ladder corpus with a cold fleet writing
// through to a shared remote store, all under dir. On the largest corpus
// (fleet) it also compares a cold single process against a fleet of
// workers with no local state, the fresh-machine shape, replaying the
// now-warm remote.
func distributedRung(r *record, dir string, modules, funcsPer, stmtsPer int, fleet bool) error {
	defer os.RemoveAll(dir)
	p := testgen.Generate(testgen.Config{
		Seed: 42, Modules: modules, FuncsPer: funcsPer, StmtsPer: stmtsPer, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
	})
	paths, err := materializeCorpus(p, filepath.Join(dir, "src"))
	if err != nil {
		return err
	}
	bs, remoteURL, stop, err := startBlobServer(filepath.Join(dir, "remote"))
	if err != nil {
		return err
	}
	defer stop()
	elapsed, messages := runShardFleet(fleetShards, paths, filepath.Join(dir, "cache"), remoteURL)
	row := map[string]float64{
		"lines": float64(p.Lines), "modules": float64(modules), "shards": fleetShards,
		"check_ms": ms(elapsed), "ms_per_kloc": ms(elapsed) / (float64(p.Lines) / 1000),
		"messages": float64(messages),
	}
	fmt.Printf("%10d %8d %7d %12.1f %12.2f %10d\n", p.Lines, modules, fleetShards, row["check_ms"], row["ms_per_kloc"], messages)
	r.Rows = append(r.Rows, row)
	if !fleet {
		return nil
	}
	coldSingle, _ := runShardFleet(1, paths, filepath.Join(dir, "single"), "")
	warmFleet, _ := runShardFleet(fleetShards, paths, "", remoteURL)
	st := bs.StatsSnapshot()
	maps.Copy(r.Metrics, map[string]float64{
		"fleet_shards": fleetShards, "fleet_lines": float64(p.Lines), "fleet_modules": float64(modules),
		"cold_single_ns": float64(coldSingle), "cold_fleet_warm_remote_ns": float64(warmFleet),
		"fleet_speedup": float64(coldSingle) / float64(warmFleet),
		"remote_gets":   float64(st.Gets), "remote_puts": float64(st.Puts),
	})
	return nil
}

// distributedParity requires the merged, sorted shard streams to equal the
// single-process stream for every shard count, cold and warm, in plain,
// -explain and -validate modes.
func distributedParity(r *record, dir string, modules int) error {
	pp := testgen.Generate(testgen.Config{
		Seed: 7, Modules: modules, FuncsPer: 3, Annotate: true,
		Bugs: map[testgen.BugKind]int{
			testgen.BugLeak: modules / 2, testgen.BugUseAfterFree: modules / 2,
			testgen.BugNullDeref: modules / 2,
		},
	})
	paths, err := materializeCorpus(pp, filepath.Join(dir, "src"))
	if err != nil {
		return err
	}
	shardCounts := []int{1, 2, 4, 8}
	ok := map[string]bool{"parity_cold": true, "parity_warm": true, "parity_explain": true, "parity_validate": true}
	runs := 0
	for _, mode := range []string{"plain", "explain", "validate"} {
		var extra []string
		if mode != "plain" {
			extra = []string{"-" + mode}
		}
		warmDir := filepath.Join(dir, mode+"-warm")
		single, _, err := shardJSONL("0/1", paths, warmDir, extra...)
		if err != nil {
			return err
		}
		for _, n := range shardCounts {
			for _, pass := range []string{"cold", "warm"} {
				cacheDir := warmDir
				if pass == "cold" {
					cacheDir = filepath.Join(dir, fmt.Sprintf("%s-cold-%d", mode, n))
				}
				var merged []string
				for i := 0; i < n; i++ {
					lines, _, err := shardJSONL(fmt.Sprintf("%d/%d", i, n), paths, cacheDir, extra...)
					if err != nil {
						return err
					}
					merged = append(merged, lines...)
				}
				sort.Strings(merged)
				same := strings.Join(merged, "\n") == strings.Join(single, "\n")
				if !same {
					fmt.Printf("parity FAILED: n=%d %s mode=%s\n", n, pass, mode)
				}
				runs++
				ok["parity_"+pass] = ok["parity_"+pass] && same
				if mode != "plain" {
					ok["parity_"+mode] = ok["parity_"+mode] && same
				}
			}
		}
	}
	maps.Copy(r.Checks, ok)
	r.Metrics["parity_runs"] = float64(runs)
	fmt.Printf("parity (n in %v, cold+warm, plain/explain/validate): cold=%v warm=%v explain=%v validate=%v\n",
		shardCounts, ok["parity_cold"], ok["parity_warm"], ok["parity_explain"], ok["parity_validate"])
	return nil
}

// distributedCompression checks an E9-shape corpus with -stats-json and
// records the disk layer's compression; the warm replay from the
// compressed entries must equal the cold output byte for byte.
func distributedCompression(r *record, dir string, modules int) error {
	cp := testgen.Generate(testgen.Config{
		Seed: 42, Modules: modules, FuncsPer: 10, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
	})
	paths, err := materializeCorpus(cp, filepath.Join(dir, "src"))
	if err != nil {
		return err
	}
	cacheDir, statsPath := filepath.Join(dir, "cache"), filepath.Join(dir, "stats.json")
	coldOut, err := runWithStats(paths, cacheDir, statsPath)
	if err != nil {
		return err
	}
	raw, comp, err := readDiskCompression(statsPath)
	if err != nil {
		return err
	}
	_, warmOut, err := shardJSONL("0/1", paths, cacheDir)
	if err != nil {
		return err
	}
	r.Metrics["compression_raw_bytes"], r.Metrics["compression_compressed_bytes"] = float64(raw), float64(comp)
	if comp > 0 {
		r.Metrics["compression_ratio"] = float64(raw) / float64(comp)
	}
	r.Checks["warm_replay_identical"] = coldOut == warmOut
	fmt.Printf("compression: %d raw -> %d stored bytes (%.2fx), warm replay identical: %v\n",
		raw, comp, r.Metrics["compression_ratio"], coldOut == warmOut)
	return nil
}

// startBlobServer runs an in-process shared remote store on a loopback
// port, exactly as `golclint -cache-serve` serves it. It returns the
// server (for stats), its base URL, and a shutdown func.
func startBlobServer(dir string) (*server.BlobServer, string, func(), error) {
	bs, err := server.NewBlob(server.BlobOptions{Dir: dir})
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	go bs.Serve(ln)
	return bs, "http://" + ln.Addr().String(), func() { ln.Close() }, nil
}

// runShardFleet runs n shard workers sequentially over paths, all sharing
// cacheDir and, if non-empty, the remote store at remoteURL. It returns the
// summed wall time and the number of diagnostics the workers reported.
func runShardFleet(n int, paths []string, cacheDir, remoteURL string) (time.Duration, int) {
	var total time.Duration
	var out diagCounter
	for i := 0; i < n; i++ {
		args := []string{"-shard", fmt.Sprintf("%d/%d", i, n)}
		if cacheDir != "" {
			args = append(args, "-cache-dir", cacheDir)
		}
		if remoteURL != "" {
			args = append(args, "-remote-cache", remoteURL)
		}
		args = append(args, paths...)
		start := time.Now()
		cli.Run(args, &out, io.Discard)
		total += time.Since(start)
	}
	return total, out.n
}

// diagCounter counts the diagnostics written to it: each starts a line at
// column 0, while its notes are indented.
type diagCounter struct {
	n   int
	mid bool // inside a line
}

func (c *diagCounter) Write(p []byte) (int, error) {
	for _, b := range p {
		if !c.mid && b != ' ' && b != '\n' {
			c.n++
		}
		c.mid = b != '\n'
	}
	return len(p), nil
}

// shardJSONL runs one shard worker with a diag-jsonl stream and returns
// the stream's lines sorted (the canonical merge order) plus stdout.
func shardJSONL(shard string, paths []string, cacheDir string, extra ...string) ([]string, string, error) {
	tmp, err := os.CreateTemp("", "golclint-bench-jsonl-")
	if err != nil {
		return nil, "", err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := append([]string{"-shard", shard, "-cache-dir", cacheDir, "-diag-jsonl", tmp.Name()}, extra...)
	var out strings.Builder
	if code := cli.Run(append(args, paths...), &out, io.Discard); code > 1 {
		return nil, "", fmt.Errorf("shard %s exited %d", shard, code)
	}
	b, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, "", err
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		lines = nil
	}
	sort.Strings(lines)
	return lines, out.String(), nil
}

// runWithStats runs a single-process shard worker with -stats-json and
// returns its stdout.
func runWithStats(paths []string, cacheDir, statsPath string) (string, error) {
	args := append([]string{"-shard", "0/1", "-cache-dir", cacheDir, "-stats-json", statsPath}, paths...)
	var out strings.Builder
	if code := cli.Run(args, &out, io.Discard); code > 1 {
		return "", fmt.Errorf("stats run exited %d", code)
	}
	return out.String(), nil
}

// readDiskCompression pulls the disk layer's raw/compressed byte counters
// out of a -stats-json document.
func readDiskCompression(path string) (raw, comp int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	var doc struct {
		CacheStores map[string]cache.StoreStats `json:"cache_stores"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return 0, 0, err
	}
	disk, ok := doc.CacheStores["disk"]
	if !ok {
		return 0, 0, fmt.Errorf("%s carries no disk cache stats", path)
	}
	return disk.RawBytes, disk.CompressedBytes, nil
}

// ---------------------------------------------------------------------------
// E23: function-granular incremental checking, the editloop. The corpus is
// an E22-style modular program whose functions are check-heavy (branchy
// code over tracked allocations, the profile where re-checking is worth
// avoiding). The cold passes price the function cache: a function-granular
// cold check writes one sub-entry per function, and may cost at most the
// gated factor in wall time, and a bounded number of extra bytes allocated
// per sub-entry, over a -fn-cache=false cold check. After warming the
// cache, exactly one function of one module is edited and the whole corpus
// re-checked: the function-granular layer must re-check only the edited
// function (func_cache_misses == 1) and replay everything else, beating a
// module-granular warm re-check of the same edit by the gated factor on
// the full corpus (small corpora under-reward replay: fixed frontend cost
// dominates). The parity section drives the
// real CLI over a materialized corpus and requires the dirty warm
// transcript to equal a cold run over the same edited sources, byte for
// byte, in plain, -explain, and -validate modes at jobs 1, 4, and 8.

// editloopSpeedupGate is the committed dirty-edit speedup of the
// function-granular layer over module-granular warm re-checking.
const editloopSpeedupGate = 5.0

func runEditloop(r *record, quick bool) error {
	modules, funcsPer, heavy, reps := 6, 6, 6, 5
	if quick {
		modules, funcsPer, heavy, reps = 4, 3, 4, 3
	}
	p := testgen.Generate(testgen.Config{
		Seed: 47, Modules: modules, FuncsPer: funcsPer, HeavyPer: heavy,
		Annotate: true, Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules},
	})
	lib := library.Build(core.CheckSources(p.Headers, core.Options{}).Program)
	mods := map[string]map[string]string{}
	for name, src := range p.Files {
		mods[name] = map[string]string{name: src}
	}
	fmt.Printf("corpus: %d lines, %d modules, %d functions per module (check-heavy)\n",
		p.Lines, modules, funcsPer)

	work, err := os.MkdirTemp("", "golclint-bench-editloop-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// runPass re-checks all modules against one store; disable selects the
	// module-granular baseline (the -fn-cache=false path).
	runPass := func(store cache.Store, disable bool, lib *library.Library,
		mods map[string]map[string]string, inc cpp.Includer) editloopPass {
		m := obs.New()
		opt := core.Options{Includes: inc, Cache: store, Metrics: m, Jobs: 1, DisableFnCache: disable}
		var results map[string]*core.Result
		elapsed, alloc := measureRow(func() { results = library.CheckModules(mods, lib, opt) })
		pass := editloopPass{ms: ms(elapsed), alloc: float64(alloc), m: m}
		for _, res := range results {
			pass.messages += len(res.Diags)
		}
		return pass
	}
	editName := func(i int) string { return fmt.Sprintf("mod0_calc%d", i%funcsPer) }
	editedMods := func(i int) (map[string]map[string]string, error) {
		q, err := p.EditBody("mod0.c", editName(i))
		if err != nil {
			return nil, err
		}
		out := map[string]map[string]string{}
		for name := range mods {
			out[name] = mods[name]
		}
		out["mod0.c"] = map[string]string{"mod0.c": q.Files["mod0.c"]}
		return out, nil
	}

	// Cold pairs: a function-granular pass and the module-granular
	// baseline, interleaved, each into fresh stores; fastest of reps on
	// both sides. The last pair's stores serve the passes below.
	inc := cpp.MapIncluder(p.Headers)
	var fnStore, modStore cache.Store
	coldFn := editloopPass{ms: math.Inf(1), alloc: math.Inf(1)}
	coldMod := coldFn
	for i := 0; i < reps; i++ {
		if fnStore, err = cache.Open(filepath.Join(work, fmt.Sprint("fn", i))); err != nil {
			return err
		}
		if modStore, err = cache.Open(filepath.Join(work, fmt.Sprint("mod", i))); err != nil {
			return err
		}
		coldFn = coldFn.fastest(runPass(fnStore, false, lib, mods, inc))
		coldMod = coldMod.fastest(runPass(modStore, true, lib, mods, inc))
	}
	warm := runPass(fnStore, false, lib, mods, inc)
	// Every cold function-granular pass writes one sub-entry per function
	// it checks.
	entries := float64(coldFn.m.Get(obs.FuncCacheMisses))

	// Reps distinct one-function edits, each a genuine dirty re-check
	// against the original-warm stores; fastest-of-reps on both sides.
	dirtyFnMS, dirtyModMS := math.Inf(1), math.Inf(1)
	var first *obs.Metrics
	for i := 0; i < reps; i++ {
		em, err := editedMods(i)
		if err != nil {
			return err
		}
		fn := runPass(fnStore, false, lib, em, inc)
		dirtyFnMS = min(dirtyFnMS, fn.ms)
		if i == 0 {
			first = fn.m
		}
		if got := fn.m.Get(obs.FuncCacheMisses); got != 1 {
			fmt.Printf("WARNING: edit %s re-checked %d functions, want 1\n", editName(i), got)
		}
		dirtyModMS = min(dirtyModMS, runPass(modStore, true, lib, em, inc).ms)
	}

	// Interface-annotation edit: conservative, module-wide re-check.
	q, err := p.EditAnnot("mod0")
	if err != nil {
		return err
	}
	qlib := library.Build(core.CheckSources(q.Headers, core.Options{}).Program)
	am := runPass(fnStore, false, qlib, mods, cpp.MapIncluder(q.Headers)).m

	parity, runs, err := editloopParity(p, filepath.Join(work, "cli"), editName)
	if err != nil {
		return err
	}
	maps.Copy(r.Checks, parity)
	maps.Copy(r.Metrics, map[string]float64{
		"lines": float64(p.Lines), "modules": float64(modules), "funcs_per": float64(funcsPer),
		"reps": float64(reps), "cold_ms": coldFn.ms, "warm_ms": warm.ms,
		"cold_mod_ms": coldMod.ms, "cold_alloc_bytes": coldFn.alloc, "cold_mod_alloc_bytes": coldMod.alloc,
		"cold_fn_entries": entries, "cold_fn_cost_ratio": coldFn.ms / coldMod.ms,
		"cold_fn_extra_alloc_per_entry": (coldFn.alloc - coldMod.alloc) / entries,
		"dirty_fn_ms":                   dirtyFnMS, "dirty_mod_ms": dirtyModMS, "speedup_dirty": dirtyModMS / dirtyFnMS,
		"speedup_gate": editloopSpeedupGate, "func_cache_hits": float64(first.Get(obs.FuncCacheHits)),
		"func_cache_misses":      float64(first.Get(obs.FuncCacheMisses)),
		"func_replayed_diags":    float64(first.Get(obs.FuncReplayedDiags)),
		"annot_edit_func_misses": float64(am.Get(obs.FuncCacheMisses)),
		"parity_runs":            float64(runs), "messages": float64(coldFn.messages),
	})

	fmt.Printf("%8s %10s %12s\n", "pass", "wall(ms)", "alloc(KiB)")
	fmt.Printf("%8s %10.1f %12.0f  (function-granular: %.0f sub-entries written)\n", "cold-fn",
		coldFn.ms, coldFn.alloc/1024, entries)
	fmt.Printf("%8s %10.1f %12.0f  (module-granular baseline)\n", "cold-mod", coldMod.ms, coldMod.alloc/1024)
	fmt.Printf("%8s %10.1f\n", "warm", warm.ms)
	fmt.Printf("%8s %10.1f  (function-granular: %d re-checked, %d replayed, %d diags replayed)\n", "dirty-fn",
		dirtyFnMS, first.Get(obs.FuncCacheMisses), first.Get(obs.FuncCacheHits), first.Get(obs.FuncReplayedDiags))
	fmt.Printf("%8s %10.1f  (module-granular baseline)\n", "dirty-mod", dirtyModMS)
	fmt.Printf("cold cost of the function cache: %.2fx wall (gate: <= 1.2x, full size), %.0f extra bytes allocated per sub-entry (gate: <= 65536)\n",
		r.Metrics["cold_fn_cost_ratio"], r.Metrics["cold_fn_extra_alloc_per_entry"])
	fmt.Printf("dirty-edit speedup: %.1fx (gate: >= %.0fx, full size)\n", r.Metrics["speedup_dirty"], editloopSpeedupGate)
	fmt.Printf("annotation edit re-checks %d functions (conservative module-wide invalidation)\n",
		am.Get(obs.FuncCacheMisses))
	fmt.Printf("transcript parity warm-vs-cold at jobs 1, 4, 8: plain=%v explain=%v validate=%v\n",
		parity["parity_plain"], parity["parity_explain"], parity["parity_validate"])
	fmt.Println("paper extension: an edit re-checks one function, not one module — the editloop is sub-frontend-cost")
	return nil
}

// An editloopPass is one timed re-check of the editloop corpus.
type editloopPass struct {
	ms, alloc float64 // wall milliseconds and bytes allocated
	m         *obs.Metrics
	messages  int
}

// fastest keeps, of p and q, the faster pass, and the smaller of their
// allocations.
func (p editloopPass) fastest(q editloopPass) editloopPass {
	alloc := min(p.alloc, q.alloc)
	if q.ms < p.ms {
		p = q
	}
	p.alloc = alloc
	return p
}

// editloopParity materializes p under dir and, per output mode, primes a
// cache, then compares warm-dirty CLI transcripts against cold ones over
// the same one-function edit at jobs 1, 4 and 8. It returns each mode's
// parity and the number of comparisons made.
func editloopParity(p *testgen.Program, dir string, editName func(int) string) (map[string]bool, int, error) {
	paths, err := materializeCorpus(p, dir)
	if err != nil {
		return nil, 0, err
	}
	mod0 := filepath.Join(dir, "mod0.c")
	parity := map[string]bool{}
	runs := 0
	for _, mode := range []string{"plain", "explain", "validate"} {
		warmDir := filepath.Join(dir, "cache-"+mode)
		var modeArgs []string
		if mode != "plain" {
			modeArgs = []string{"-" + mode}
		}
		cli.Run(append(append([]string{"-cache-dir", warmDir}, modeArgs...), paths...), io.Discard, io.Discard)
		parity["parity_"+mode] = true
		for i, jobs := range []int{1, 4, 8} {
			q, err := p.EditBody("mod0.c", editName(i))
			if err != nil {
				return nil, 0, err
			}
			if err := os.WriteFile(mod0, []byte(q.Files["mod0.c"]), 0o644); err != nil {
				return nil, 0, err
			}
			js := fmt.Sprint(jobs)
			var warm, cold strings.Builder
			warmCode := cli.Run(append(append([]string{"-cache-dir", warmDir, "-jobs", js}, modeArgs...), paths...), &warm, io.Discard)
			coldCode := cli.Run(append(append([]string{"-jobs", js}, modeArgs...), paths...), &cold, io.Discard)
			runs++
			if warm.String() != cold.String() || warmCode != coldCode {
				parity["parity_"+mode] = false
				fmt.Printf("PARITY MISMATCH: %s at jobs %d\n", mode, jobs)
			}
		}
		// Restore the original module for the next mode's prime run.
		if err := os.WriteFile(mod0, []byte(p.Files["mod0.c"]), 0o644); err != nil {
			return nil, 0, err
		}
	}
	return parity, runs, nil
}
