package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"golclint/internal/cache"
	"golclint/internal/cli"
	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/library"
	"golclint/internal/obs"
	"golclint/internal/server"
	"golclint/internal/testgen"
)

// tracer accumulates one traced run: per-check layer samples, the
// interleaved baseline pairs, and the verdicts of every check it made.
type tracer struct {
	s               *series
	t               tally
	wTraced, wPlain []float64 // pipeline wall, traced and untraced, ms
	withA, withoutA []float64 // cache.cost_ratio pairs, ms
	fnOn, fnOff     []float64 // fncache.cost_ratio pairs, ms
	iters           int
}

func newTracer() *tracer { return &tracer{s: newSeries()} }

// pipeIn is one pipeline call: the modules it checks in order, with their
// include resolver, library and mode.
type pipeIn struct {
	mods    []map[string]string
	inc     func(files map[string]string) cpp.Includer
	lib     *library.Library
	explain bool
}

// pipeline runs one traced and one untraced pass over the same input, in
// alternating order, and returns the traced pass's verdict.
func (tr *tracer) pipeline(in pipeIn, traced *timedStore, tracedDir string, plain cache.Store, flip bool) verdict {
	var wt, wu time.Duration
	var v verdict
	runPlain := func() {
		for _, m := range in.mods {
			opt := pipelineOptions(in.inc(m), plain, in.lib, in.explain, nil)
			start := time.Now()
			core.CheckSources(m, opt)
			wu += time.Since(start)
		}
	}
	if flip {
		runPlain()
		wt, v = tr.tracedPass(in, traced, tracedDir)
	} else {
		wt, v = tr.tracedPass(in, traced, tracedDir)
		runPlain()
	}
	tr.wTraced = append(tr.wTraced, ms(wt))
	tr.wPlain = append(tr.wPlain, ms(wu))
	return v
}

// modRun is one module's traced pipeline call.
type modRun struct {
	res      *core.Result
	wall     time.Duration
	h        *hookTimes
	counters map[string]int64
	store    storeCounts
}

// tracedPass checks every module through core.CheckSources with the timed
// store and hooks, then replays the layers' public functions on the same
// input, and records one sample per layer metric. It returns the summed
// pipeline wall and the rendered verdict.
func (tr *tracer) tracedPass(in pipeIn, ts *timedStore, dir string) (time.Duration, verdict) {
	_, files0 := dirStats(dir)
	runs := make([]modRun, len(in.mods))
	rt0 := readRuntime()
	ts.take()
	for i, m := range in.mods {
		h := &hookTimes{}
		mt := obs.New()
		opt := pipelineOptions(in.inc(m), ts, in.lib, in.explain, h)
		opt.Metrics = mt
		start := time.Now()
		res := core.CheckSources(m, opt)
		runs[i] = modRun{res: res, wall: time.Since(start), h: h, counters: mt.Snapshot().Counters, store: ts.take()}
	}
	rt1 := readRuntime()
	_, files1 := dirStats(dir)

	var (
		wall, pp, key, parse, sema, cfgT, check, get, put, decode time.Duration
		install, fp, export, valid, render, covered               time.Duration
		gets, hits, puts, tokens, blocks, fc, replayed, rechecked int
		written                                                   int64
		out                                                       strings.Builder
		exit                                                      int
	)
	for i, m := range in.mods {
		r := &runs[i]
		rep := replicate(m, in.inc(m), in.lib, in.explain, !r.res.CacheHit)
		if r.store.gets > 0 && rep.cacheKey != r.store.firstKey {
			tr.t.check(verdict{}, fmt.Errorf("replica cache key differs from the pipeline's: the replica no longer preprocesses what core does"), verdict{}, nil)
		}
		n := int(r.counters["functions_checked"])
		wall += r.wall
		pp += rep.pp
		key += rep.key
		get += r.store.get
		put += r.store.put
		decode += ts.decode(r.store)
		gets += r.store.gets
		hits += r.store.hits
		puts += r.store.puts
		written += r.store.written
		fc += n
		replayed += int(r.counters["func_cache_hits"])
		rechecked += int(r.counters["func_cache_misses"])
		install += dur(&r.h.install)
		fp += dur(&r.h.fingerprint)
		export += dur(&r.h.export)
		valid += dur(&r.h.validate)
		tr.s.total("validate.examined", float64(r.h.examined.Load()))
		tr.s.total("validate.confirmed", float64(r.h.confirmed.Load()))
		covered += rep.pp + rep.key + r.store.get
		if !r.res.CacheHit {
			parse += rep.parse
			sema += rep.sema
			tokens += rep.tokens
			cfgT += rep.share(rep.cfg, n)
			check += rep.share(rep.check, n)
			if rep.funcs > 0 {
				blocks += rep.blocks * n / rep.funcs
			}
			covered += rep.parse + rep.sema + rep.share(rep.check, n) + r.store.put +
				dur(&r.h.install) + dur(&r.h.fingerprint) + dur(&r.h.export) + dur(&r.h.validate)
		}

		// Rendering, as the CLI and the server do it: the text surface
		// plus the machine-readable wire form.
		start := time.Now()
		for _, d := range r.res.Diags {
			if in.explain {
				out.WriteString(d.Explain())
			} else {
				out.WriteString(d.String())
			}
			out.WriteByte('\n')
		}
		cli.StatsDiags(r.res.Diags)
		render += time.Since(start)
		if len(r.res.Diags) > 0 || len(r.res.ParseErrors) > 0 {
			exit = 1
		}
	}

	s := tr.s
	s.add("cpp.preprocess_ms", ms(pp))
	s.add("cparse.parse_ms", ms(parse))
	s.total("cparse.tokens", float64(tokens))
	s.total("cparse.seconds", parse.Seconds())
	s.add("sema.analyze_ms", ms(sema))
	s.add("cfg.build_ms", ms(cfgT))
	s.add("cfg.blocks", float64(blocks))
	s.add("core.check_ms", ms(check))
	s.add("core.functions_checked", float64(fc))
	s.add("library.install_ms", ms(install))
	s.add("library.fingerprint_ms", ms(fp))
	s.add("library.export_ms", ms(export))
	s.add("cache.key_ms", ms(key))
	s.add("cache.get_ms", ms(get))
	s.add("cache.gets", float64(gets))
	s.total("cache.gets", float64(gets))
	s.total("cache.hits", float64(hits))
	s.add("cache.decode_ms", ms(decode))
	s.add("cache.put_ms", ms(put))
	s.add("cache.puts", float64(puts))
	s.add("cache.bytes_written", float64(written))
	s.add("cache.files_written", float64(files1-files0))
	s.add("fncache.replayed", float64(replayed))
	s.add("fncache.rechecked", float64(rechecked))
	if in.explain {
		s.add("validate.apply_ms", ms(valid))
	}
	s.add("diag.render_ms", ms(render))
	s.add("runtime.alloc_mb", (rt1.allocBytes-rt0.allocBytes)/mb)
	s.add("runtime.gc_cpu_ms", (rt1.gcCPUSeconds-rt0.gcCPUSeconds)*1000)
	if wall > 0 {
		s.add("pipeline.unattributed_pct", 100*float64(wall-covered)/float64(wall))
	}
	return wall, verdict{exit: exit, stdout: out.String()}
}

// inproc runs cli.Run in this process and times it.
func inproc(args []string) (time.Duration, verdict, error) {
	var out bytes.Buffer
	start := time.Now()
	code := cli.Run(args, &out, io.Discard)
	d := time.Since(start)
	var err error
	if code != 0 && code != 1 {
		err = fmt.Errorf("in-process golclint exited %d", code)
	}
	return d, verdict{exit: code, stdout: out.String()}, err
}

// timedCheck runs cli.Run in process on args, checks its verdict against
// ref, and returns its wall time.
func (tr *tracer) timedCheck(args []string, ref verdict, p *testgen.Program) time.Duration {
	d, v, err := inproc(args)
	tr.t.check(v, err, ref, p)
	return d
}

// loadInputs times cli.Config.LoadInputs on the project's .c files.
func (tr *tracer) loadInputs(proj string, p *testgen.Program) (map[string]string, cpp.Includer, error) {
	cfg, err := cli.ParseConfig(absPaths(proj, p), io.Discard)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	files, inc, err := cfg.LoadInputs()
	tr.s.add("cli.load_inputs_ms", ms(time.Since(start)))
	return files, inc, err
}

func absPaths(proj string, p *testgen.Program) []string {
	var out []string
	for _, n := range cNames(p) {
		out = append(out, filepath.Join(proj, n))
	}
	return out
}

// cliPipe is the pipeline input of the CLI workloads: all .c files as one
// program.
func cliPipe(files map[string]string, inc cpp.Includer) pipeIn {
	return pipeIn{mods: []map[string]string{files}, inc: func(map[string]string) cpp.Includer { return inc }}
}

// timedDisk opens a cache directory behind a timing wrapper.
func timedDisk(dir string) (*timedStore, error) {
	c, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	return &timedStore{inner: c, disk: c}, nil
}

// traceEditLoop splits edit-loop's time by layer. Its set-up first checks
// the unchanged project cold, in-process cli.Run into an empty cache
// directory against cli.Run without one, in alternating order
// (cache.cost_ratio). Five caches are then warmed identically and see the
// same seeded edits: a golclint subprocess (A) against in-process cli.Run
// (B) for exec overhead, B against -fn-cache=false (C) for
// fncache.cost_ratio, and the traced (T) against the untraced (U)
// pipeline.
func traceEditLoop(b *bench) (*outcome, error) {
	p := newProgram(b.seed)
	proj, err := b.freshDir("project")
	if err == nil {
		err = writeProject(proj, p)
	}
	if err != nil {
		return nil, err
	}
	var dirs [5]string
	for j := range dirs {
		if dirs[j], err = b.freshDir("trace", itoa(j)); err != nil {
			return nil, err
		}
	}
	noFn := "-fn-cache=false"
	traced, err := timedDisk(dirs[3])
	if err != nil {
		return nil, err
	}
	plain, err := cache.Open(dirs[4])
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	ref := refCLI(p)
	files, inc, err := tr.loadInputs(proj, p)
	if err != nil {
		return nil, err
	}
	abs := absPaths(proj, p)
	for i := 0; i < setupRuns; i++ {
		d, err := b.freshDir("trace", "cold", itoa(i))
		if err != nil {
			return nil, err
		}
		with := func() { tr.withA = append(tr.withA, ms(tr.timedCheck(checkArgs(abs, d), ref, p))) }
		without := func() { tr.withoutA = append(tr.withoutA, ms(tr.timedCheck(checkArgs(abs, ""), ref, p))) }
		if i%2 == 0 {
			with()
			without()
		} else {
			without()
			with()
		}
	}
	if r := b.execCLI(proj, checkArgs(cNames(p), dirs[0])); r.err != nil {
		return nil, r.err
	}
	for _, args := range [][]string{checkArgs(abs, dirs[1]), checkArgs(abs, dirs[2], noFn)} {
		if _, _, err := inproc(args); err != nil {
			return nil, err
		}
	}
	for _, st := range []cache.Store{traced.inner, plain} {
		core.CheckSources(files, pipelineOptions(inc, st, nil, false, nil))
	}
	tr.s = newSeries() // drop the warm-up's load_inputs sample

	ed := newEditor(p, subSeed(b.seed, 1))
	sched := &schedule{rng: rand.New(rand.NewSource(subSeed(b.seed, 2))), block: editLoopBlock}
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < b.dur; i++ {
		flip := i%2 == 1
		file, err := ed.apply(sched.next())
		if err == nil {
			err = os.WriteFile(filepath.Join(proj, file), []byte(source(ed.cur, file)), 0o644)
		}
		if err != nil {
			return nil, err
		}
		ref = refCLI(ed.cur)
		files, inc, err := tr.loadInputs(proj, ed.cur)
		if err != nil {
			return nil, err
		}
		sub := b.execCLI(proj, checkArgs(cNames(p), dirs[0]))
		tr.t.check(sub.v, sub.err, ref, ed.cur)
		var on, off time.Duration
		runOn := func() {
			d, v, err := inproc(checkArgs(abs, dirs[1]))
			on = d
			tr.t.check(v, err, ref, ed.cur)
		}
		runOff := func() {
			d, v, err := inproc(checkArgs(abs, dirs[2], noFn))
			off = d
			tr.t.check(v, err, ref, ed.cur)
		}
		if flip {
			runOff()
			runOn()
		} else {
			runOn()
			runOff()
		}
		tr.fnOn = append(tr.fnOn, ms(on))
		tr.fnOff = append(tr.fnOff, ms(off))
		tr.s.add("cli.exec_overhead_ms", ms(sub.wall-on))

		v := tr.pipeline(cliPipe(files, inc), traced, dirs[3], plain, flip)
		tr.t.check(v, nil, ref, ed.cur)
		tr.iters++
	}
	return tr.outcome(nil), nil
}

// traceServeMixed splits serve-mixed's time by layer, with one client so
// the in-process measurements do not contend with a second one. Each
// request is encoded and decoded in process (server JSON), sent to the
// live daemon (round trip), executed by an in-process cli.Session twin
// (server.execute_ms), and checked through the traced and untraced
// modules pipeline over resident stores shaped like the daemon's.
func traceServeMixed(b *bench) (*outcome, error) {
	p := newProgram(b.seed)
	refs := newModRefs()
	d, _, _, err := b.serveSetup(p, refs.verdict(p, false), 1)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	var dirs [3]string
	for j := range dirs {
		if dirs[j], err = b.freshDir("trace", itoa(j)); err != nil {
			return nil, err
		}
	}
	twin, err := cli.NewSession(dirs[0])
	if err != nil {
		return nil, err
	}
	tdisk, err := cache.Open(dirs[1])
	if err != nil {
		return nil, err
	}
	traced := &timedStore{inner: &cache.Layered{Fast: cache.NewMemStore(), Slow: tdisk}, disk: tdisk}
	udisk, err := cache.Open(dirs[2])
	if err != nil {
		return nil, err
	}
	plain := &cache.Layered{Fast: cache.NewMemStore(), Slow: udisk}

	tr := newTracer()
	modsIn := func(cur *testgen.Program, explain bool) pipeIn {
		var mods []map[string]string
		for _, n := range cNames(cur) {
			mods = append(mods, map[string]string{n: cur.Files[n]})
		}
		return pipeIn{
			mods: mods, explain: explain,
			inc: func(files map[string]string) cpp.Includer { return includer(cur.Headers, files) },
			lib: refs.library(cur.Headers, headersDigest(cur.Headers)),
		}
	}
	execute := func(req server.CheckRequest) (time.Duration, verdict, error) {
		args := []string{"-jobs", itoa(req.Jobs)}
		if req.Explain {
			args = append(args, "-explain", "-validate")
		}
		var out bytes.Buffer
		var v verdict
		start := time.Now()
		for _, mod := range sortedKeys(req.Modules) {
			files := req.Modules[mod]
			argv := append(append([]string(nil), args...), sortedKeys(files)...)
			cfg, err := cli.ParseConfig(argv, io.Discard)
			if err != nil {
				return 0, v, err
			}
			cfg.Lib = twin.LibraryFor(req.Headers)
			code, _ := twin.Execute(cfg, files, includer(req.Headers, files), &out, io.Discard)
			if code > v.exit {
				v.exit = code
			}
		}
		v.stdout = out.String()
		return time.Since(start), v, nil
	}
	// Warm the twin and both pipeline stores with the daemon's set-up
	// request.
	if _, _, err := execute(checkRequest(p, false)); err != nil {
		return nil, err
	}
	for _, st := range []cache.Store{traced.inner, plain} {
		in := modsIn(p, false)
		for _, m := range in.mods {
			core.CheckSources(m, pipelineOptions(in.inc(m), st, in.lib, false, nil))
		}
	}

	st0, err := d.stats()
	if err != nil {
		return nil, err
	}
	c := newServeClient(p, b.seed, 0)
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < b.dur; i++ {
		cur, explain, err := c.next()
		if err != nil {
			return nil, err
		}
		ref := refs.verdict(cur, explain)
		req := checkRequest(cur, explain)
		t0 := time.Now()
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		tr.s.add("server.encode_ms", ms(time.Since(t0)))
		t0 = time.Now()
		var decoded server.CheckRequest
		if err := json.Unmarshal(body, &decoded); err != nil {
			return nil, err
		}
		tr.s.add("server.decode_ms", ms(time.Since(t0)))

		v, rt, err := d.post(c.http, c.name, body)
		tr.t.check(v, err, ref, cur)
		exec, ev, err := execute(req)
		tr.t.check(ev, err, ref, cur)
		tr.s.add("server.execute_ms", ms(exec))
		tr.s.add("server.overhead_ms", ms(rt-exec))

		pv := tr.pipeline(modsIn(cur, explain), traced, dirs[1], plain, i%2 == 1)
		tr.t.check(pv, nil, ref, cur)
		tr.iters++
	}
	st1, err := d.stats()
	if err != nil {
		return nil, err
	}
	return tr.outcome(&serverDelta{
		requests: st1.Requests - st0.Requests, memoHits: st1.MemoHits - st0.MemoHits,
		coalesced: st1.Coalesced - st0.Coalesced, rejected: st1.Rejected - st0.Rejected,
	}), nil
}

// serverDelta is the daemon's /stats movement over a traced run.
type serverDelta struct{ requests, memoHits, coalesced, rejected int64 }

// outcome turns the traced run into the per-layer metrics. A layer the
// workload does not reach reports 0.
func (tr *tracer) outcome(sd *serverDelta) *outcome {
	s := tr.s
	m := map[string]metric{}
	for name, unit := range perLayerUnits {
		m[name] = metric{s.med(name), unit}
	}
	m["cparse.tokens_per_s"] = metric{s.per("cparse.tokens", "cparse.seconds"), "1/s"}
	m["cache.hit_ratio"] = metric{s.per("cache.hits", "cache.gets"), "ratio"}
	m["validate.confirmed_ratio"] = metric{s.per("validate.confirmed", "validate.examined"), "ratio"}
	if len(tr.withoutA) > 0 {
		m["cache.cost_ratio"] = metric{median(tr.withA) / median(tr.withoutA), "ratio"}
	}
	if len(tr.fnOff) > 0 {
		m["fncache.cost_ratio"] = metric{median(tr.fnOn) / median(tr.fnOff), "ratio"}
	}
	if sd != nil {
		m["server.memo_hit_ratio"] = metric{ratio(int(sd.memoHits), int(sd.requests)), "ratio"}
		m["server.coalesced"] = metric{float64(sd.coalesced), "count"}
		m["server.rejected"] = metric{float64(sd.rejected), "count"}
	}
	m["trace.overhead_pct"] = metric{100 * (median(tr.wTraced)/median(tr.wPlain) - 1), "%"}
	return &outcome{
		attempted: tr.t.attempted, failed: tr.t.failed, recall: mean(tr.t.recalls),
		metrics: m, samples: tr.iters, notes: tr.t.errNotes(),
	}
}
