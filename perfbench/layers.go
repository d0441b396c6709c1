package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"golclint/internal/cache"
	"golclint/internal/cast"
	"golclint/internal/cfg"
	"golclint/internal/core"
	"golclint/internal/cparse"
	"golclint/internal/cpp"
	"golclint/internal/ctoken"
	"golclint/internal/diag"
	"golclint/internal/flags"
	"golclint/internal/library"
	"golclint/internal/sema"
	"golclint/internal/validate"
)

// timedStore wraps the cache.Store handed to core.Options.Cache and times
// every Get and Put from outside. disk is the on-disk layer the decode
// estimate re-reads raw bytes from.
type timedStore struct {
	inner cache.Store
	disk  *cache.Cache

	mu sync.Mutex
	c  storeCounts
}

// storeCounts is what a timedStore saw during one pipeline call.
type storeCounts struct {
	get, put         time.Duration
	gets, hits, puts int
	written          int64
	firstKey         string // the module key: the first lookup of a call
	hitTimes         map[string]time.Duration
}

// take returns the counts since the last take and starts afresh.
func (t *timedStore) take() storeCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.c
	t.c = storeCounts{hitTimes: map[string]time.Duration{}}
	return c
}

func (t *timedStore) Get(key string) (*cache.Entry, bool) {
	start := time.Now()
	e, ok := t.inner.Get(key)
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.c.gets == 0 {
		t.c.firstKey = key
	}
	t.c.get += d
	t.c.gets++
	if ok {
		t.c.hits++
		t.c.hitTimes[key] += d
	}
	return e, ok
}

func (t *timedStore) Put(key string, e *cache.Entry) (int64, error) {
	start := time.Now()
	n, err := t.inner.Put(key, e)
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.c.put += d
	t.c.puts++
	t.c.written += n
	return n, err
}

// decode estimates decode and inflate time: each hit's Get time minus a
// GetBytes of the same key from the disk layer.
func (t *timedStore) decode(c storeCounts) time.Duration {
	var total time.Duration
	for key, d := range c.hitTimes {
		start := time.Now()
		t.disk.GetBytes(key)
		if raw := time.Since(start); d > raw {
			total += d - raw
		}
	}
	return total
}

// hookTimes times the core.Options hooks a pipeline call runs.
type hookTimes struct {
	install, fingerprint, export, validate atomic.Int64 // nanoseconds
	examined, confirmed                    atomic.Int64
}

func since(a *atomic.Int64, start time.Time) { a.Add(int64(time.Since(start))) }

func dur(a *atomic.Int64) time.Duration { return time.Duration(a.Load()) }

// pipelineOptions mirrors the core.Options the CLI (cli.Session.Execute)
// and the server's modules path (library.CheckModule) build, at -jobs 1.
// With h set, the PreCheck, EnvFingerprint (and the lookup it returns),
// CacheExport and Validate hooks are wrapped in timers.
func pipelineOptions(inc cpp.Includer, store cache.Store, lib *library.Library, explain bool, h *hookTimes) core.Options {
	opt := core.Options{Flags: flags.Default(), Includes: inc, Jobs: 1, Explain: explain}
	if lib != nil {
		opt.PreCheck = lib.Install
		if h != nil {
			opt.PreCheck = func(prog *sema.Program) error {
				defer since(&h.install, time.Now())
				return lib.Install(prog)
			}
		}
	}
	if explain {
		opt.Validate = func(prog *sema.Program, ds []*diag.Diagnostic) {
			if h == nil {
				validate.Apply(prog, ds, validate.Options{})
				return
			}
			start := time.Now()
			sum := validate.Apply(prog, ds, validate.Options{})
			since(&h.validate, start)
			h.examined.Add(int64(sum.Examined))
			h.confirmed.Add(int64(sum.Confirmed))
		}
	}
	if store == nil {
		return opt
	}
	opt.Cache = store
	if lib != nil {
		opt.CacheDeps = lib.Fingerprints()
	}
	opt.CacheExport = library.ExportProgram
	opt.EnvFingerprint = library.SymbolFingerprints
	if h != nil {
		opt.CacheExport = func(prog *sema.Program) ([]byte, error) {
			defer since(&h.export, time.Now())
			return library.ExportProgram(prog)
		}
		opt.EnvFingerprint = func(prog *sema.Program) func(string) string {
			start := time.Now()
			lookup := library.SymbolFingerprints(prog)
			since(&h.fingerprint, start)
			return func(name string) string {
				defer since(&h.fingerprint, time.Now())
				return lookup(name)
			}
		}
	}
	return opt
}

// builtinHeaders mirror the headers core supplies itself, so the replica
// preprocesses exactly what the pipeline does. The replica's cache key is
// compared with the key the pipeline looked up, which catches any drift.
var builtinHeaders = cpp.MapIncluder(map[string]string{
	"stdlib.h": "typedef unsigned long size_t;\n" +
		"#define NULL ((void*)0)\n" +
		"#define EXIT_FAILURE 1\n" +
		"#define EXIT_SUCCESS 0\n",
	"stdio.h": "#define NULL ((void*)0)\n" +
		"#define EOF (-1)\n",
	"string.h": "typedef unsigned long size_t;\n" +
		"#define NULL ((void*)0)\n",
	"assert.h": "",
	"bool.h": "typedef int bool;\n" +
		"#define TRUE 1\n" +
		"#define FALSE 0\n",
})

type withBuiltins struct{ primary cpp.Includer }

func (w withBuiltins) Include(name string) (string, error) {
	src, err := w.primary.Include(name)
	if err == nil || !cpp.IsNotFound(err) {
		return src, err
	}
	return builtinHeaders.Include(name)
}

// replica is one module's pass through the layers' public functions, each
// call timed: cpp.Preprocessor.Process and the cache key per file, then,
// when full, cparse.Session.Parse per file, sema.Analyze, and cfg.Build
// and core.CheckFunction per function.
type replica struct {
	pp, key, parse, sema, cfg, check time.Duration
	tokens, blocks, funcs            int
	cacheKey                         string
}

func replicate(files map[string]string, inc cpp.Includer, lib *library.Library, explain, full bool) replica {
	var r replica
	fl := flags.Default()
	names := sortedKeys(files)
	pp := cpp.NewShared(withBuiltins{inc}, cpp.NewBaseDefines(map[string]string{"NULL": "((void*)0)"}))
	expanded := make([]string, len(names))
	errs := make([][]string, len(names))
	for i, n := range names {
		pp.Reset()
		start := time.Now()
		expanded[i] = pp.Process(n, files[n])
		r.pp += time.Since(start)
		for _, e := range pp.Errors() {
			errs[i] = append(errs[i], e.Error())
		}
	}

	start := time.Now()
	kh := cache.NewKeyHasher(core.Version, fl.Fingerprint())
	if explain {
		kh.Component("explain")
		kh.Component("validate")
	}
	for i, n := range names {
		kh.File(n, expanded[i], errs[i])
	}
	r.cacheKey = kh.Sum()
	r.key = time.Since(start)
	if !full {
		return r
	}

	sess := cparse.NewSession(ctoken.NewInterner())
	var units []*cast.Unit
	for i, n := range names {
		start := time.Now()
		pr := sess.Parse(n, expanded[i])
		r.parse += time.Since(start)
		r.tokens += pr.Tokens
		units = append(units, pr.Unit)
	}
	start = time.Now()
	prog := sema.Analyze(units)
	r.sema = time.Since(start)
	if lib != nil {
		lib.Install(prog)
	}
	for _, u := range prog.Units {
		for _, f := range u.Funcs() {
			start := time.Now()
			g := cfg.Build(f)
			r.cfg += time.Since(start)
			r.blocks += len(g.Nodes)
			start = time.Now()
			core.CheckFunction(prog, fl, diag.NewReporter(0), f)
			r.check += time.Since(start)
			r.funcs++
		}
	}
	return r
}

// share scales a whole-module replica time to the n functions the
// pipeline actually checked.
func (r replica) share(d time.Duration, n int) time.Duration {
	if r.funcs == 0 {
		return 0
	}
	return d * time.Duration(n) / time.Duration(r.funcs)
}

// runtimeSample reads the Go runtime's allocation and GC CPU totals.
type runtimeSample struct{ allocBytes, gcCPUSeconds float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPUSeconds = s[1].Value.Float64()
	}
	return out
}
