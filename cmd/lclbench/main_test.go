package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The static-vs-dynamic driver (E13) is interpreter-bound and minutes-scale
// at its full configuration on small machines, so TestExperimentsRun skips
// it; this reduced corpus keeps the driver exercised by `go test`.
func TestStaticVsDynamicSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the concrete interpreter")
	}
	runStaticVsDynamicConfig(2, 2, 1, []int{0, 100})
}

// shape is what a scenario's -quick record must hold beyond the stamps.
type shape struct {
	positive    []string           // metrics that must be > 0
	equal       map[string]float64 // metrics the -quick configuration fixes
	rows        int                // minimum ladder rows
	rowPositive []string           // row figures that must be > 0
	grow        string             // row figure that strictly increases down the ladder
}

var shapes = map[string]shape{
	"scaling": {
		rows: 2, grow: "lines",
		rowPositive: []string{"lines", "check_ms", "ms_per_kloc", "messages", "alloc_bytes",
			"phases_ns.check", "counters.functions_checked"},
	},
	"modular": {
		positive: []string{"whole_lines", "whole_ns", "whole_alloc_bytes", "module_lines", "module_ns",
			"module_alloc_bytes", "speedup", "library_entries", "phases_ns.check"},
	},
	"parallel": {
		positive: []string{"lines", "functions", "max_jobs"},
		equal:    map[string]float64{"modules": 8},
		rows:     3, grow: "jobs",
		rowPositive: []string{"wall_ms", "check_wall_ms", "check_cpu_ms", "speedup", "check_speedup", "alloc_bytes"},
	},
	"incremental": {
		positive: []string{"lines", "speedup_warm", "speedup_dirty"},
		equal:    map[string]float64{"modules": 8, "jobs": 1},
		rows:     3, rowPositive: []string{"wall_ms", "cache_bytes", "messages", "alloc_bytes"},
	},
	"state": {
		positive: []string{"lines", "check_ns_per_op", "alloc_bytes_per_op", "allocs_per_op",
			"store_clones", "refstates_copied"},
		equal: map[string]float64{"modules": 32, "iters": 3, "budget_allocs_per_op": stateBudgetAllocsPerOp,
			"baseline_allocs_per_op": stateBaselineAllocsPerOp},
	},
	"frontend": {
		positive: []string{"lines", "frontend_ns_per_op", "alloc_bytes_per_op", "allocs_per_op",
			"jobs4_ns_per_op", "preprocess_wall_ns", "parse_wall_ns"},
		equal: map[string]float64{"modules": 32, "iters": 3, "budget_allocs_per_op": frontendBudgetAllocsPerOp,
			"baseline_allocs_per_op": frontendBaselineAllocsPerOp},
	},
	"provenance": {
		positive: []string{"lines", "off_check_ns_per_op", "on_check_ns_per_op", "off_allocs_per_op",
			"on_allocs_per_op", "off_alloc_bytes_per_op", "on_alloc_bytes_per_op"},
		equal: map[string]float64{"modules": 32, "iters": 10, "budget_allocs_per_op": stateBudgetAllocsPerOp},
	},
	"validate": {
		positive: []string{"lines", "diags", "confirmed", "validate_ns_per_op", "ns_per_diag"},
		equal: map[string]float64{"modules": 24, "iters": 3, "seeded_total": 24,
			"budget_ns_per_op": validateBudgetNSPerOp},
	},
	"serve": {
		positive: []string{"lines", "cold_cli_ns", "cold_server_ns", "speedup_warm", "throughput_rps",
			"cache_entries", "cache_bytes"},
		equal: map[string]float64{"modules": 8, "rounds": serveRounds, "warm_reqs": 20, "clients": 4,
			"burst_reqs": 4 * 2 * 8},
	},
	"distributed": {
		positive: []string{"fleet_lines", "cold_single_ns", "cold_fleet_warm_remote_ns", "fleet_speedup",
			"remote_gets", "remote_puts", "compression_raw_bytes", "compression_compressed_bytes"},
		equal: map[string]float64{"fleet_shards": fleetShards, "fleet_modules": 16, "parity_runs": 3 * 4 * 2},
		rows:  3, grow: "lines",
		rowPositive: []string{"lines", "check_ms", "ms_per_kloc", "messages"},
	},
	"editloop": {
		positive: []string{"lines", "cold_ms", "cold_mod_ms", "cold_alloc_bytes", "cold_mod_alloc_bytes",
			"cold_fn_entries", "cold_fn_cost_ratio", "warm_ms", "dirty_fn_ms", "dirty_mod_ms", "speedup_dirty",
			"messages"},
		equal: map[string]float64{"modules": 4, "funcs_per": 3, "reps": 3, "speedup_gate": editloopSpeedupGate,
			"parity_runs": 3 * 3},
	},
}

// Every experiment runs to completion: the paper's text experiments at
// their own size (the numbers they print are asserted by the package
// tests; this guards the drivers against bit rot), and every scenario at
// -quick size, writing a well-formed record that meets every
// machine-independent condition of its gate. Timing conditions are left
// to the lclbench binary (CI's bench-smoke job).
func TestExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are slow")
	}
	for _, e := range experiments {
		if e.name == "economy" || e.name == "staticvsdynamic" {
			continue // minutes-scale corpora; staticvsdynamic has a reduced run above
		}
		t.Run(e.name, func(t *testing.T) { e.run() })
	}
	for i := range scenarios {
		s := &scenarios[i]
		t.Run(s.name, func(t *testing.T) { checkQuickRecord(t, s.name) })
	}
}

// quickRecords holds each scenario's -quick record, measured once per test
// process and shared by TestExperimentsRun and the per-scenario tests.
var quickRecords struct {
	sync.Mutex
	byName map[string]*record
}

// scenarioNamed returns the scenario called name.
func scenarioNamed(t *testing.T, name string) *scenario {
	t.Helper()
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i]
		}
	}
	t.Fatalf("no scenario %q", name)
	return nil
}

// quickRecord returns the -quick record of the named scenario, measuring
// it on first use.
func quickRecord(t *testing.T, name string) *record {
	t.Helper()
	quickRecords.Lock()
	defer quickRecords.Unlock()
	if r, ok := quickRecords.byName[name]; ok {
		return r
	}
	r, err := measure(scenarioNamed(t, name), true)
	if err != nil {
		t.Fatal(err)
	}
	if quickRecords.byName == nil {
		quickRecords.byName = map[string]*record{}
	}
	quickRecords.byName[name] = r
	return r
}

// checkQuickRecord writes the named scenario's -quick record to
// BENCH_<name>.json, reads it back and checks its stamps, its shape and
// every machine-independent condition of its gate. It returns the record
// as read back.
func checkQuickRecord(t *testing.T, name string) *record {
	t.Helper()
	sh, ok := shapes[name]
	if !ok {
		t.Fatalf("no record shape for scenario %q", name)
	}
	s := scenarioNamed(t, name)
	dir := t.TempDir()
	if err := writeRecord(dir, quickRecord(t, name)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var got record
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("record invalid: %v", err)
	}
	if got.Schema != schema || got.Experiment != s.id || got.Scenario != name || !got.Quick {
		t.Errorf("stamps = %q %q %q quick=%v", got.Schema, got.Experiment, got.Scenario, got.Quick)
	}
	if got.GoVersion == "" || got.GOOS == "" || got.ElapsedNS <= 0 || got.AllocBytes == 0 || got.PeakHeapBytes == 0 {
		t.Errorf("run stamps missing: %+v", got)
	}
	for _, m := range sh.positive {
		if !(got.metric(m) > 0) {
			t.Errorf("metric %s = %v, want > 0", m, got.metric(m))
		}
	}
	for m, want := range sh.equal {
		if got.metric(m) != want {
			t.Errorf("metric %s = %v, want %v", m, got.metric(m), want)
		}
	}
	if len(got.Rows) < sh.rows {
		t.Errorf("rows = %d, want >= %d", len(got.Rows), sh.rows)
	}
	for i, row := range got.Rows {
		for _, k := range sh.rowPositive {
			if !(row[k] > 0) {
				t.Errorf("row %d: %s = %v, want > 0", i, k, row[k])
			}
		}
		if sh.grow != "" && i > 0 && !(row[sh.grow] > got.Rows[i-1][sh.grow]) {
			t.Errorf("row %d: %s = %v does not grow from %v", i, sh.grow, row[sh.grow], got.Rows[i-1][sh.grow])
		}
	}
	for _, c := range violations(s.gate, &got, false) {
		t.Errorf("gate condition failed: %s%s", c.name, got.values(c.name))
	}
	return &got
}

// The incremental experiment (E16) emits a valid BENCH_incremental.json
// whose cold, warm and dirty passes each report the cold pass's message
// total, so replayed diagnostics are the ones a fresh check produces.
func TestBenchIncrementalJSONEmission(t *testing.T) {
	if testing.Short() {
		t.Skip("E16 checks a generated corpus three times")
	}
	r := checkQuickRecord(t, "incremental")
	for i := range r.Rows {
		if r.row(i, "messages") != r.row(0, "messages") {
			t.Errorf("pass %d messages = %v, differs from cold's %v (replay broken)",
				i, r.row(i, "messages"), r.row(0, "messages"))
		}
	}
}

// The provenance experiment (E19) emits a valid BENCH_provenance.json
// whose recording pass allocates more than its off pass: witness storage
// allocates, so equal counts mean the recorder is inert.
func TestBenchProvenanceJSONEmission(t *testing.T) {
	if testing.Short() {
		t.Skip("E19 parses the full E17 corpus")
	}
	r := checkQuickRecord(t, "provenance")
	if !(r.metric("on_allocs_per_op") > r.metric("off_allocs_per_op")) {
		t.Errorf("recording pass allocs/op %v not above off pass %v; recorder inert?",
			r.metric("on_allocs_per_op"), r.metric("off_allocs_per_op"))
	}
}

// The counterexample-validation experiment (E20) emits a valid
// BENCH_validate.json whose confirmed rate is the share of examined
// diagnostics that validate confirmed.
func TestBenchValidateJSONEmission(t *testing.T) {
	if testing.Short() {
		t.Skip("E20 checks and validates a seeded corpus")
	}
	r := checkQuickRecord(t, "validate")
	if r.metric("confirmed") > r.metric("diags") ||
		r.metric("confirmed_rate") != r.metric("confirmed")/r.metric("diags") {
		t.Errorf("confirmed rate %v inconsistent with %v/%v diags",
			r.metric("confirmed_rate"), r.metric("confirmed"), r.metric("diags"))
	}
}

// The analysis-server experiment (E21) emits a valid BENCH_serve.json
// whose warm requests replay the response memo and leave the resident
// cache populated.
func TestBenchServeJSONEmission(t *testing.T) {
	if testing.Short() {
		t.Skip("E21 runs a live server over a generated corpus")
	}
	checkQuickRecord(t, "serve")
}

// The editloop experiment (E23) emits a valid BENCH_editloop.json whose
// machine-independent half holds: one-function edits re-check exactly one
// function, replay is non-vacuous, annotation edits invalidate module-wide,
// and warm dirty transcripts match cold ones in every mode.
func TestBenchEditloopJSONEmission(t *testing.T) {
	if testing.Short() {
		t.Skip("E23 checks a generated corpus across several cache stores")
	}
	checkQuickRecord(t, "editloop")
}

// gateRecord builds a full-size record from metrics, checks and rows.
func gateRecord(metrics map[string]float64, checks map[string]bool, rows ...map[string]float64) *record {
	return &record{Metrics: metrics, Checks: checks, Rows: rows}
}

// gateCases give each gated scenario a record that passes its gate and,
// for each condition, an edit that makes the record violate that condition
// alone.
var gateCases = map[string]struct {
	pass   func() *record
	breaks map[string]func(r *record)
}{
	"modular": {
		pass: func() *record {
			return gateRecord(map[string]float64{"library_entries": 40, "counters.library_entries_loaded": 40}, nil)
		},
		breaks: map[string]func(*record){
			"counters.library_entries_loaded == library_entries": func(r *record) { r.Metrics["counters.library_entries_loaded"] = 39 },
		},
	},
	"parallel": {
		pass: func() *record {
			return gateRecord(map[string]float64{"messages": 4}, map[string]bool{"messages_identical": true})
		},
		breaks: map[string]func(*record){
			"messages_identical": func(r *record) { r.Checks["messages_identical"] = false },
			"messages > 0":       func(r *record) { r.Metrics["messages"] = 0 },
		},
	},
	"incremental": {
		pass: func() *record {
			return gateRecord(map[string]float64{"messages": 4, "modules": 8, "speedup_warm": 10, "speedup_dirty": 6},
				map[string]bool{"messages_identical": true},
				map[string]float64{"cache_hits": 0, "cache_misses": 8},
				map[string]float64{"cache_hits": 8, "cache_misses": 0},
				map[string]float64{"cache_hits": 7, "cache_misses": 1})
		},
		breaks: map[string]func(*record){
			"messages_identical": func(r *record) { r.Checks["messages_identical"] = false },
			"messages > 0":       func(r *record) { r.Metrics["messages"] = 0 },
			"cold pass: cache_hits == 0, cache_misses == modules":      func(r *record) { r.Rows[0]["cache_hits"] = 1 },
			"warm pass: cache_hits == modules, cache_misses == 0":      func(r *record) { r.Rows[1]["cache_misses"] = 1 },
			"dirty pass: cache_hits == modules - 1, cache_misses == 1": func(r *record) { r.Rows[2]["cache_misses"] = 2 },
			"speedup_warm > 1":  func(r *record) { r.Metrics["speedup_warm"] = 0.9 },
			"speedup_dirty > 1": func(r *record) { r.Metrics["speedup_dirty"] = 1 },
		},
	},
	"state": {
		pass: func() *record {
			return gateRecord(map[string]float64{"allocs_per_op": 15400, "budget_allocs_per_op": 17000,
				"baseline_allocs_per_op": 135659}, nil)
		},
		breaks: map[string]func(*record){
			"allocs_per_op <= 1.2 * budget_allocs_per_op": func(r *record) { r.Metrics["allocs_per_op"] = 21000 },
			"5 * allocs_per_op <= baseline_allocs_per_op": func(r *record) { r.Metrics["baseline_allocs_per_op"] = 50000 },
		},
	},
	"frontend": {
		pass: func() *record {
			return gateRecord(map[string]float64{"allocs_per_op": 5500, "budget_allocs_per_op": 6500,
				"baseline_allocs_per_op": 48797}, nil)
		},
		breaks: map[string]func(*record){
			"allocs_per_op <= 1.2 * budget_allocs_per_op": func(r *record) { r.Metrics["allocs_per_op"] = 8000 },
			"5 * allocs_per_op <= baseline_allocs_per_op": func(r *record) { r.Metrics["baseline_allocs_per_op"] = 20000 },
		},
	},
	"provenance": {
		pass: func() *record {
			return gateRecord(map[string]float64{"off_allocs_per_op": 15400, "budget_allocs_per_op": 17000,
				"witnessed": 16, "diags": 16}, nil)
		},
		breaks: map[string]func(*record){
			"off_allocs_per_op <= 1.2 * budget_allocs_per_op": func(r *record) { r.Metrics["off_allocs_per_op"] = 21000 },
			"witnessed == diags > 0":                          func(r *record) { r.Metrics["witnessed"] = 15 },
		},
	},
	"validate": {
		pass: func() *record {
			return gateRecord(map[string]float64{"seeded_total": 24, "seeded_confirmed": 24, "confirmed_rate": 1,
				"validate_ns_per_op": 230186, "budget_ns_per_op": 5e9}, nil)
		},
		breaks: map[string]func(*record){
			"seeded_confirmed == seeded_total > 0":   func(r *record) { r.Metrics["seeded_confirmed"] = 23 },
			"confirmed_rate >= 0.8":                  func(r *record) { r.Metrics["confirmed_rate"] = 0.79 },
			"validate_ns_per_op <= budget_ns_per_op": func(r *record) { r.Metrics["validate_ns_per_op"] = 6e9 },
		},
	},
	"serve": {
		pass: func() *record {
			return gateRecord(map[string]float64{"warm_p50_ns": 6e5, "warm_p99_ns": 1.5e6, "memo_hits": 75,
				"speedup_warm": 9.6}, nil)
		},
		breaks: map[string]func(*record){
			"warm_p50_ns > 0":            func(r *record) { r.Metrics["warm_p50_ns"] = 0 },
			"warm_p99_ns >= warm_p50_ns": func(r *record) { r.Metrics["warm_p99_ns"] = 5e5 },
			"memo_hits > 0":              func(r *record) { r.Metrics["memo_hits"] = 0 },
			"speedup_warm >= 5":          func(r *record) { r.Metrics["speedup_warm"] = 4.9 },
		},
	},
	"distributed": {
		pass: func() *record {
			return gateRecord(map[string]float64{"compression_ratio": 2.11, "ms_per_kloc_ratio": 0.45,
				"fleet_lines": 1050607, "fleet_modules": 2000, "fleet_speedup": 18.1},
				map[string]bool{"parity_cold": true, "parity_warm": true, "parity_explain": true,
					"parity_validate": true, "warm_replay_identical": true},
				map[string]float64{"lines": 10492}, map[string]float64{"lines": 105175},
				map[string]float64{"lines": 1050607})
		},
		breaks: map[string]func(*record){
			"parity_cold":            func(r *record) { r.Checks["parity_cold"] = false },
			"parity_warm":            func(r *record) { r.Checks["parity_warm"] = false },
			"parity_explain":         func(r *record) { r.Checks["parity_explain"] = false },
			"parity_validate":        func(r *record) { r.Checks["parity_validate"] = false },
			"warm_replay_identical":  func(r *record) { r.Checks["warm_replay_identical"] = false },
			"compression_ratio >= 2": func(r *record) { r.Metrics["compression_ratio"] = 1.9 },
			"ladder rows >= 2":       func(r *record) { r.Rows = r.Rows[:1] },
			"ms_per_kloc_ratio <= 2": func(r *record) { r.Metrics["ms_per_kloc_ratio"] = 2.1 },
			"fleet_lines >= 1000000": func(r *record) { r.Metrics["fleet_lines"] = 999999 },
			"fleet_modules >= 1000":  func(r *record) { r.Metrics["fleet_modules"] = 999 },
			"fleet_speedup >= 5":     func(r *record) { r.Metrics["fleet_speedup"] = 4.9 },
		},
	},
	"editloop": {
		pass: func() *record {
			return gateRecord(map[string]float64{"func_cache_misses": 1, "func_cache_hits": 15,
				"annot_edit_func_misses": 16, "speedup_dirty": 13.3, "speedup_gate": 5,
				"cold_fn_extra_alloc_per_entry": 15000, "cold_fn_cost_ratio": 0.93},
				map[string]bool{"parity_plain": true, "parity_explain": true, "parity_validate": true})
		},
		breaks: map[string]func(*record){
			"func_cache_misses == 1":     func(r *record) { r.Metrics["func_cache_misses"] = 2 },
			"func_cache_hits > 0":        func(r *record) { r.Metrics["func_cache_hits"] = 0 },
			"annot_edit_func_misses > 1": func(r *record) { r.Metrics["annot_edit_func_misses"] = 1 },
			"parity_plain":               func(r *record) { r.Checks["parity_plain"] = false },
			"parity_explain":             func(r *record) { r.Checks["parity_explain"] = false },
			"parity_validate":            func(r *record) { r.Checks["parity_validate"] = false },
			"cold_fn_extra_alloc_per_entry <= 65536": func(r *record) {
				r.Metrics["cold_fn_extra_alloc_per_entry"] = 70000
			},
			"cold_fn_cost_ratio <= 1.2":     func(r *record) { r.Metrics["cold_fn_cost_ratio"] = 1.25 },
			"speedup_dirty >= speedup_gate": func(r *record) { r.Metrics["speedup_dirty"] = 4.9 },
		},
	},
}

// condNames lists the names of conditions.
func condNames(cs []cond) []string {
	var names []string
	for _, c := range cs {
		names = append(names, c.name)
	}
	return names
}

// Each gate passes its passing record and reports exactly the one
// condition each violating record breaks. go test leaves timing conditions
// to the binary, quick records skip full-size conditions, and race-built
// records skip pooled ones.
func TestGateConditions(t *testing.T) {
	for i := range scenarios {
		s := &scenarios[i]
		tc, ok := gateCases[s.name]
		if !ok {
			if len(s.gate) > 0 {
				t.Errorf("%s: gate has no test cases", s.name)
			}
			continue
		}
		if v := violations(s.gate, tc.pass(), true); len(v) > 0 {
			t.Errorf("%s: passing record violates %q", s.name, condNames(v))
		}
		if v := violations(s.gate, &record{}, true); len(v) != len(s.gate) {
			t.Errorf("%s: an empty record violates only %q", s.name, condNames(v))
		}
		if len(tc.breaks) != len(s.gate) {
			t.Errorf("%s: %d violating records for %d conditions", s.name, len(tc.breaks), len(s.gate))
		}
		for _, c := range s.gate {
			brk, ok := tc.breaks[c.name]
			if !ok {
				t.Errorf("%s: no violating record for %q", s.name, c.name)
				continue
			}
			r := tc.pass()
			brk(r)
			if got := condNames(violations(s.gate, r, true)); len(got) != 1 || got[0] != c.name {
				t.Errorf("%s: record breaking %q reports %q", s.name, c.name, got)
			}
			if got := violations(s.gate, r, false); c.timing != (len(got) == 0) {
				t.Errorf("%s: %q (timing=%v) reported by go test as %q", s.name, c.name, c.timing, condNames(got))
			}
			r.Quick = true
			if got := violations(s.gate, r, true); c.full != (len(got) == 0) {
				t.Errorf("%s: %q (full=%v) reported on a quick record as %q", s.name, c.name, c.full, condNames(got))
			}
			r.Quick, r.Race = false, true
			if got := violations(s.gate, r, true); c.pooled != (len(got) == 0) {
				t.Errorf("%s: %q (pooled=%v) reported on a race-built record as %q", s.name, c.name, c.pooled, condNames(got))
			}
		}
	}
}
