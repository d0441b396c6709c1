package core

// Tests for diagnostic provenance (-explain) and trace determinism: every
// diagnostic carries a non-empty witness path when explain is on, default
// output and default diagnostics are untouched, and both the JSONL trace
// stream and the explained rendering are byte-identical at any worker count.

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"golclint/internal/diag"
	"golclint/internal/obs"
)

// provSrc mixes the anomaly families the witness synthesizer must cover:
// use-after-free, leak, null-deref, double-free, and leak-on-return.
var provSrc = map[string]string{
	"w.c": `#include <stdlib.h>

int useAfterFree (int n)
{
	char *p;

	p = (char *) malloc (8);
	if (p == NULL)
	{
		exit (EXIT_FAILURE);
	}
	free (p);
	p[0] = (char) n;
	return n;
}

int leak (int n)
{
	char *q;

	q = (char *) malloc (4);
	if (q == NULL)
	{
		exit (EXIT_FAILURE);
	}
	return n;
}

int nullDeref (void)
{
	int *r;

	r = (int *) malloc (sizeof (int));
	*r = 3;
	free (r);
	return 0;
}

int doubleFree (void)
{
	char *s;

	s = (char *) malloc (2);
	if (s == NULL)
	{
		exit (EXIT_FAILURE);
	}
	free (s);
	free (s);
	return 0;
}
`,
}

func TestExplainEveryDiagnosticHasWitness(t *testing.T) {
	res := CheckSources(provSrc, Options{Explain: true})
	if len(res.ParseErrors) > 0 {
		t.Fatalf("parse errors: %v", res.ParseErrors)
	}
	if len(res.Diags) == 0 {
		t.Fatal("no diagnostics; test is vacuous")
	}
	for _, d := range res.Diags {
		if d.Prov == nil || len(d.Prov.Steps) == 0 {
			t.Errorf("diagnostic without witness: %s", d.String())
			continue
		}
		if d.Prov.Steps[0].Kind != "entry" {
			t.Errorf("witness does not start at function entry: %s (first step %q)",
				d.String(), d.Prov.Steps[0].Kind)
		}
	}
}

func TestExplainWitnessShowsTransitionChain(t *testing.T) {
	res := CheckSources(provSrc, Options{Explain: true})
	out := res.ExplainedMessages()
	for _, want := range []string{
		"witness (p):",
		"[alloc]",
		"[release]",
		"in function useAfterFree",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explained output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainOffRecordsNothing(t *testing.T) {
	res := CheckSources(provSrc, Options{})
	if len(res.Diags) == 0 {
		t.Fatal("no diagnostics; test is vacuous")
	}
	for _, d := range res.Diags {
		if d.Prov != nil {
			t.Errorf("provenance recorded with explain off: %s", d.String())
		}
	}
	// Without provenance the explain rendering degrades to the default.
	if res.ExplainedMessages() != res.Messages() {
		t.Error("ExplainedMessages differs from Messages with explain off")
	}
}

// Default (non-explained) output must be byte-identical with explain on or
// off: provenance may only add information, never perturb messages.
func TestExplainDefaultOutputUnchanged(t *testing.T) {
	off := CheckSources(provSrc, Options{})
	on := CheckSources(provSrc, Options{Explain: true})
	if off.Messages() != on.Messages() {
		t.Errorf("default output changed under explain:\n--- off ---\n%s--- on ---\n%s",
			off.Messages(), on.Messages())
	}
}

func TestExplainDeterministicAcrossJobs(t *testing.T) {
	render := func(jobs int) string {
		res := CheckSources(parallelSrc, Options{Explain: true, Jobs: jobs})
		return res.ExplainedMessages()
	}
	serial := render(1)
	if serial == "" {
		t.Fatal("no explained messages; test is vacuous")
	}
	for _, jobs := range []int{4, 8} {
		if got := render(jobs); got != serial {
			t.Errorf("jobs=%d explained output differs:\n--- serial ---\n%s--- jobs=%d ---\n%s",
				jobs, serial, jobs, got)
		}
	}
}

var durationField = regexp.MustCompile(`"duration_ns":\d+`)

// traceAt renders the full JSONL trace stream with the volatile duration
// field masked.
func traceAt(t *testing.T, jobs int, explain bool) string {
	t.Helper()
	m := obs.New()
	m.EnableSpans()
	opt := Options{Metrics: m, Jobs: jobs, Explain: explain}
	var diags []obs.DiagEvent
	if explain {
		opt.DiagSink = func(d *diag.Diagnostic) {
			ev := obs.DiagEvent{Code: d.Code.String(), File: d.Pos.File, Line: d.Pos.Line, Msg: d.Msg}
			if d.Prov != nil {
				ev.Ref = d.Prov.Ref
				for _, s := range d.Prov.Steps {
					ev.Witness = append(ev.Witness, s.StepString())
				}
			}
			diags = append(diags, ev)
		}
	}
	res := CheckSources(provSrc, opt)
	if len(res.ParseErrors) > 0 {
		t.Fatalf("jobs=%d parse errors: %v", jobs, res.ParseErrors)
	}
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	tr.Funcs(m.Spans())
	for _, ev := range diags {
		tr.Diag(ev)
	}
	return durationField.ReplaceAllString(buf.String(), `"duration_ns":0`)
}

// The JSONL trace stream renders function spans in serial function order,
// however the workers closed them, so it is byte-identical (modulo
// durations) at any worker count.
func TestTraceStreamDeterministicAcrossJobs(t *testing.T) {
	for _, explain := range []bool{false, true} {
		serial := traceAt(t, 1, explain)
		if serial == "" {
			t.Fatal("empty trace; test is vacuous")
		}
		for _, jobs := range []int{4, 8} {
			if got := traceAt(t, jobs, explain); got != serial {
				t.Errorf("explain=%v jobs=%d trace differs:\n--- serial ---\n%s--- jobs=%d ---\n%s",
					explain, jobs, serial, jobs, got)
			}
		}
	}
}

// Under -explain the trace stream carries one diag event per retained
// diagnostic, after all function events.
func TestTraceDiagEvents(t *testing.T) {
	out := traceAt(t, 4, true)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	res := CheckSources(provSrc, Options{Explain: true})
	var diagLines, funcLines int
	sawFuncAfterDiag := false
	inDiags := false
	for _, ln := range lines {
		if strings.Contains(ln, `"type":"diag"`) {
			diagLines++
			inDiags = true
		} else {
			funcLines++
			if inDiags {
				sawFuncAfterDiag = true
			}
		}
	}
	if diagLines != len(res.Diags) {
		t.Errorf("diag trace lines = %d, want %d", diagLines, len(res.Diags))
	}
	if funcLines == 0 {
		t.Error("no function trace lines")
	}
	if sawFuncAfterDiag {
		t.Errorf("function events interleaved after diag events:\n%s", out)
	}
	if !strings.Contains(out, `"witness":[`) {
		t.Errorf("diag events carry no witness:\n%s", out)
	}
}
