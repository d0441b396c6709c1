package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesTables checks that BENCHMARK.json names exactly
// the workloads and metrics, with units, that perfbench reports.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, perfbench has %s", got, want)
	}
	for _, c := range []struct {
		kind  string
		units map[string]string
		list  []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEndUnits, conv(bf.EndToEnd)},
		{"per_layer", perLayerUnits, conv(bf.PerLayer)},
	} {
		if len(c.list) != len(c.units) {
			t.Errorf("%s lists %d metrics, perfbench reports %d", c.kind, len(c.list), len(c.units))
		}
		for _, m := range c.list {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s in %s: perfbench has %q", c.kind, m.Name, m.Unit, u)
			}
		}
	}
}

func conv(in []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) []struct{ Name, Unit string } {
	out := make([]struct{ Name, Unit string }, len(in))
	for i, m := range in {
		out[i] = struct{ Name, Unit string }{m.Name, m.Unit}
	}
	return out
}

// TestSmoke runs every workload for a few iterations, untraced and traced,
// and checks that each metric is emitted with its unit, every verdict
// matches the cold reference, and every seeded bug is found.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds golclint and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "golclint")
	if out, err := exec.Command("go", "build", "-o", bin, "golclint/cmd/golclint").CombinedOutput(); err != nil {
		t.Fatalf("building golclint: %v\n%s", err, out)
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-bin", bin, "-work", t.TempDir(), "--workload", w,
					"--seed", "3", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				units := endToEndUnits
				if trace == "1" {
					units = perLayerUnits
				}
				if len(res.Metrics) != len(units) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(units))
				}
				for name, unit := range units {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s missing or not in %s: %+v", name, unit, m)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				if !strings.Contains(stdout.String(), `"error_rate":0,`) {
					t.Errorf("stamp does not report error_rate 0:\n%s", lines[0])
				}
				if trace == "0" {
					if v := res.Metrics["ok_rate"].Value; v != 1 {
						t.Errorf("ok_rate %v, want 1 (error_rate 0)", v)
					}
					if v := res.Metrics["recall_seeded"].Value; v != 1 {
						t.Errorf("recall_seeded %v, want 1", v)
					}
				}
			})
		}
	}
}

// TestRefusesWithoutSources runs the benchmark command in a directory
// holding only BENCHMARK.json and this directory: it must fail without
// printing a result.
func TestRefusesWithoutSources(t *testing.T) {
	dir := t.TempDir()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(e.Name())
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, "perfbench", e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	bf := readBenchmarkFile(t)
	cmd := exec.Command(bf.Command[0], append(bf.Command[1:], "--workload", "edit-loop", "--seed", "1", "--seconds", "1", "--trace", "0")...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CARGO_TARGET_DIR="+filepath.Join(dir, ".bench_build"))
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("benchmark succeeded without the repository sources")
	}
	if strings.Contains(string(out), `"correct"`) {
		t.Fatalf("benchmark printed a result without the repository sources:\n%s", out)
	}
}
