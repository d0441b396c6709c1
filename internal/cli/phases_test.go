package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"golclint/internal/testgen"
)

// writeProgram writes a generated program's sources into dir and returns
// the sorted .c paths.
func writeProgram(t *testing.T, p *testgen.Program, dir string) []string {
	t.Helper()
	var paths []string
	for name, src := range p.AllSources() {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Files[name]; ok {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	return paths
}

// phaseCoverage runs one -jobs 1 check and returns the share of total_ns
// its named phases account for, with the phase table for failure reports.
func phaseCoverage(t *testing.T, args []string) (float64, map[string]int64, int64) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "stats.json")
	if code, _, stderr := runCLI(t, append([]string{"-jobs", "1", "-stats-json", out}, args...)...); code > 1 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TotalNS  int64            `json:"total_ns"`
		PhasesNS map[string]int64 `json:"phases_ns"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, ns := range doc.PhasesNS {
		sum += ns
	}
	if doc.TotalNS <= 0 || sum > doc.TotalNS {
		t.Fatalf("phase sum %d ns vs total %d ns: phases must be disjoint parts of the total", sum, doc.TotalNS)
	}
	return float64(sum) / float64(doc.TotalNS), doc.PhasesNS, doc.TotalNS
}

// The named phases account for at least 95% of a run's end-to-end total at
// -jobs 1, on the cold, warm, warm-after-one-edit and -validate paths
// through the cache: an unnamed layer shows up as a coverage drop here.
// Each scenario keeps its best of three runs, so one descheduling of the
// process in an unnamed gap does not decide the verdict.
func TestPhasesCoverTotal(t *testing.T) {
	p := testgen.Generate(testgen.Config{Seed: 13, Modules: 12, FuncsPer: 4, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 2, testgen.BugNullDeref: 2}})
	edited, err := p.EditBody("mod0.c", "mod0_calc0")
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []struct {
		name string
		// prepare returns the CLI arguments of the measured run; setup
		// runs (the cold pass a warm scenario needs) happen inside it.
		prepare func(t *testing.T) []string
	}{
		{"cold", func(t *testing.T) []string {
			paths := writeProgram(t, p, t.TempDir())
			return append([]string{"-cache-dir", t.TempDir()}, paths...)
		}},
		{"warm", func(t *testing.T) []string {
			args := append([]string{"-cache-dir", t.TempDir()}, writeProgram(t, p, t.TempDir())...)
			runCLI(t, args...)
			return args
		}},
		{"warm-edit", func(t *testing.T) []string {
			dir, cacheDir := t.TempDir(), t.TempDir()
			runCLI(t, append([]string{"-cache-dir", cacheDir}, writeProgram(t, p, dir)...)...)
			return append([]string{"-cache-dir", cacheDir}, writeProgram(t, edited, dir)...)
		}},
		{"validate", func(t *testing.T) []string {
			paths := writeProgram(t, p, t.TempDir())
			return append([]string{"-validate", "-cache-dir", t.TempDir()}, paths...)
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			best, phases, total := 0.0, map[string]int64(nil), int64(0)
			for i := 0; i < 3 && best < 0.95; i++ {
				cov, ph, tot := phaseCoverage(t, sc.prepare(t))
				if cov > best {
					best, phases, total = cov, ph, tot
				}
			}
			t.Logf("named phases cover %.1f%% of %d ns", 100*best, total)
			if best < 0.95 {
				t.Errorf("named phases cover %.1f%% of total_ns %d, want >= 95%%: %v", 100*best, total, phases)
			}
		})
	}
}
