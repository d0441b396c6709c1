package goldentest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// traceDuration matches the one volatile field of the -trace stream.
var traceDuration = regexp.MustCompile(`"duration_ns":\d+`)

// traceStream runs one CLI check over every corpus file as a single module
// and returns its -trace JSONL with durations masked.
func traceStream(t *testing.T, jobs int, explain bool) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	args := []string{"-jobs", fmt.Sprint(jobs), "-trace", out}
	if explain {
		args = append(args, "-explain")
	}
	args = append(args, corpusFiles(t)...)
	transcript(args...)
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return traceDuration.ReplaceAllString(string(b), `"duration_ns":0`)
}

// The -trace stream is a telemetry contract: one function event per
// checked function in serial function order, then (under -explain) one
// diag event per retained diagnostic in output order — identical at every
// worker count. The goldens pin the exact event sequence and fields.
func TestGoldenTraceStream(t *testing.T) {
	for _, explain := range []bool{false, true} {
		golden := "../../testdata/trace/corpus.trace.golden"
		if explain {
			golden = "../../testdata/trace/corpus.explain.trace.golden"
		}
		if *update {
			if err := os.WriteFile(golden, []byte(traceStream(t, 1, explain)), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		for _, jobs := range []int{1, 4, 8} {
			if got := traceStream(t, jobs, explain); got != string(want) {
				t.Errorf("explain=%v jobs=%d: trace drifted from %s:\n--- got ---\n%s--- want ---\n%s",
					explain, jobs, golden, got, want)
			}
		}
	}
}
