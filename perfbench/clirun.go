package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"golclint/internal/testgen"
)

// cliRun is one golclint subprocess: its wall time, CPU and peak RSS from
// rusage, and its verdict.
type cliRun struct {
	wall  time.Duration
	cpu   time.Duration
	rssKB int64
	v     verdict
	err   error // could not run, or exited other than 0 or 1
}

// execCLI runs golclint with args in dir and waits for it.
func (b *bench) execCLI(dir string, args []string) cliRun {
	cmd := exec.Command(b.bin, args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	r := cliRun{wall: time.Since(start)}
	// Write back this check's cache files before the next one starts,
	// outside the timed window. Left dirty, they are flushed by the
	// kernel's background writeback at times that vary from run to run,
	// and a check that overlaps the flush took up to 1.6 times as long.
	syscall.Sync()
	if cmd.ProcessState == nil {
		r.err = err
		return r
	}
	r.v = verdict{exit: cmd.ProcessState.ExitCode(), stdout: out.String()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssKB = ru.Maxrss
	}
	if r.v.exit != 0 && r.v.exit != 1 {
		r.err = fmt.Errorf("golclint exited %d: %s", r.v.exit, strings.TrimSpace(errb.String()))
	}
	return r
}

// checkArgs is the timed CLI invocation, golclint -jobs 2 -cache-dir d
// *.c, over the given source paths; an empty cacheDir checks without a
// cache.
func checkArgs(paths []string, cacheDir string, extra ...string) []string {
	args := []string{"-jobs", itoa(checkJobs)}
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	return append(append(args, extra...), paths...)
}

// tally accumulates timed checks and their verdicts into the end-to-end
// metrics.
type tally struct {
	lat, cpu, rss     []float64
	busy              time.Duration
	attempted, failed int
	recalls           []float64
	firstErr          error
}

// check records one timed verdict against its reference. A failure is a
// run error or a verdict that differs from the reference byte for byte.
func (t *tally) check(v verdict, err error, ref verdict, p *testgen.Program) {
	t.attempted++
	if err == nil && (v.exit != ref.exit || v.stdout != ref.stdout) {
		err = fmt.Errorf("verdict differs from the cold reference (exit %d vs %d)", v.exit, ref.exit)
	}
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.recalls = append(t.recalls, recall(p, v.stdout))
}

// sample records one timed CLI check's resources.
func (t *tally) sample(r cliRun) {
	t.lat = append(t.lat, ms(r.wall))
	t.cpu = append(t.cpu, ms(r.cpu))
	t.rss = append(t.rss, float64(r.rssKB)/1024)
	t.busy += r.wall
}

// outcome turns the tally into the end-to-end metrics.
func (t *tally) outcome(setup []float64, cacheMB, perS float64) *outcome {
	o := &outcome{attempted: t.attempted, failed: t.failed, recall: mean(t.recalls), samples: len(t.lat)}
	o.metrics = map[string]metric{
		"setup_s":          {median(setup), "s"},
		"latency_p50_ms":   {quantile(t.lat, 0.5), "ms"},
		"latency_p90_ms":   {quantile(t.lat, 0.9), "ms"},
		"checks_per_s":     {perS, "1/s"},
		"cpu_ms_per_check": {mean(t.cpu), "ms"},
		"peak_rss_mb":      {median(t.rss), "MB"},
		"cache_mb":         {cacheMB, "MB"},
		"ok_rate":          {1 - ratio(t.failed, t.attempted), "ratio"},
		"recall_seeded":    {o.recall, "ratio"},
	}
	if len(t.lat) < 100 {
		o.notes = append(o.notes, fmt.Sprintf("only %d timed checks: fewer than ten samples lie beyond p90", len(t.lat)))
	}
	o.notes = append(o.notes, t.errNotes()...)
	return o
}

// errNotes reports the first failure, if any, for the stamp.
func (t *tally) errNotes() []string {
	if t.firstErr == nil {
		return nil
	}
	return []string{"first failure: " + t.firstErr.Error()}
}

const mb = 1 << 20

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// cacheCheckpoint is the check after which edit-loop and serve-mixed
// measure the store, so cache_mb does not grow with machine speed.
const cacheCheckpoint = 100

// editLoopBlock is edit-loop's mix: 4 body edits to 1 annotation edit.
var editLoopBlock = block(map[editKind]int{editBody: 4, editAnnot: 1})

// subSeed derives an independent stream seed from the workload seed.
func subSeed(seed int64, k int64) int64 { return seed*1_000_003 + k }

// runEditLoop is the edit-loop workload: a warm -cache-dir, then a closed
// loop of seeded edits on disk, each followed by
// `golclint -jobs 2 -cache-dir d *.c` (the paper's §6 loop).
func runEditLoop(b *bench) (*outcome, error) {
	p := newProgram(b.seed)
	proj, err := b.freshDir("project")
	if err == nil {
		err = writeProject(proj, p)
	}
	if err != nil {
		return nil, err
	}
	ref0 := refCLI(p)

	// Set-up: warm a cache directory with one cold check, setupRuns times;
	// the last one is the loop's warm cache.
	var setup []float64
	var warm string
	for i := 0; i < setupRuns; i++ {
		if warm, err = b.freshDir("cache", itoa(i)); err != nil {
			return nil, err
		}
		r := b.execCLI(proj, checkArgs(cNames(p), warm))
		if r.err == nil && (r.v != ref0) {
			r.err = fmt.Errorf("warm-up verdict differs from the cold reference")
		}
		if r.err != nil {
			return nil, r.err
		}
		setup = append(setup, r.wall.Seconds())
	}

	ed := newEditor(p, subSeed(b.seed, 1))
	sched := &schedule{rng: rand.New(rand.NewSource(subSeed(b.seed, 2))), block: editLoopBlock}
	type visit struct {
		p *testgen.Program
		r cliRun
	}
	var visits []visit
	var t tally
	cacheMB := -1.0
	start := time.Now()
	for time.Since(start) < b.dur {
		file, err := ed.apply(sched.next())
		if err == nil {
			err = os.WriteFile(filepath.Join(proj, file), []byte(source(ed.cur, file)), 0o644)
		}
		if err != nil {
			return nil, err
		}
		r := b.execCLI(proj, checkArgs(cNames(p), warm))
		t.sample(r)
		visits = append(visits, visit{ed.cur, r})
		if len(visits) == cacheCheckpoint {
			n, _ := dirStats(warm)
			cacheMB = float64(n) / mb
		}
	}
	if cacheMB < 0 {
		n, _ := dirStats(warm)
		cacheMB = float64(n) / mb
	}

	// The oracle runs after the timed loop: one cold, cacheless reference
	// per visited state.
	refs := make([]verdict, len(visits))
	parallel(len(visits), func(i int) { refs[i] = refCLI(visits[i].p) })
	for i, v := range visits {
		t.check(v.r.v, v.r.err, refs[i], v.p)
	}
	return t.outcome(setup, cacheMB, float64(len(t.lat))/t.busy.Seconds()), nil
}
