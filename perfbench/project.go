package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"golclint/internal/cli"
	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/library"
	"golclint/internal/testgen"
)

// The project shape every workload checks: the ROADMAP re-anchor corpus,
// 64 annotated modules of 6 clean functions each plus one seeded bug of
// every kind (10,260 lines and 582 functions at seed 1).
const (
	projModules  = 64
	projFuncsPer = 6
	checkJobs    = 2 // -jobs of every timed check; also the concurrency cap
)

// newProgram generates the seeded project.
func newProgram(seed int64) *testgen.Program {
	bugs := map[testgen.BugKind]int{}
	for _, k := range testgen.AllBugKinds() {
		bugs[k] = 1
	}
	return testgen.Generate(testgen.Config{
		Seed: seed, Modules: projModules, FuncsPer: projFuncsPer, Annotate: true, Bugs: bugs,
	})
}

// cNames returns the program's .c file names in sorted order (the CLI's
// "*.c").
func cNames(p *testgen.Program) []string {
	names := make([]string, 0, len(p.Files))
	for n := range p.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeProject writes every source and header of p into dir.
func writeProject(dir string, p *testgen.Program) error {
	for name, src := range p.AllSources() {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// editKind is one step of a seeded edit or request sequence.
type editKind int

const (
	editBody    editKind = iota // testgen.EditBody on one clean function: new bytes every time
	editAnnot                   // drop, or restore, one header's /*@null@*/ annotation
	sendResend                  // serve-mixed: resend the current state unchanged
	sendExplain                 // serve-mixed: -explain -validate on the current state
)

// schedule deals kinds from shuffled fixed blocks, so every run holds the
// workload's exact mix however short it is.
type schedule struct {
	rng   *rand.Rand
	block []editKind
	queue []editKind
}

func (s *schedule) next() editKind {
	if len(s.queue) == 0 {
		s.queue = append(s.queue[:0], s.block...)
		s.rng.Shuffle(len(s.queue), func(i, j int) { s.queue[i], s.queue[j] = s.queue[j], s.queue[i] })
	}
	k := s.queue[0]
	s.queue = s.queue[1:]
	return k
}

// block builds a schedule block from kind counts.
func block(counts map[editKind]int) []editKind {
	var out []editKind
	for k := editBody; k <= sendExplain; k++ {
		for i := 0; i < counts[k]; i++ {
			out = append(out, k)
		}
	}
	return out
}

// editor applies seeded, cumulative edits to a program. Body edits stack
// ("return 1 + 1 + ..."), so no body edit ever repeats earlier bytes; an
// annotation edit drops a module's header annotation, or restores it when
// already dropped. Both preserve line counts, so testgen's seeded-bug
// lines hold in every state. Only clean functions are edited, never the
// seeded bugs.
type editor struct {
	rng     *rand.Rand
	base    *testgen.Program
	cur     *testgen.Program
	dropped map[int]bool
}

func newEditor(base *testgen.Program, seed int64) *editor {
	return &editor{rng: rand.New(rand.NewSource(seed)), base: base, cur: base, dropped: map[int]bool{}}
}

// apply performs one edit and returns the name of the file it changed.
func (e *editor) apply(k editKind) (string, error) {
	m := e.rng.Intn(projModules)
	switch k {
	case editBody:
		file := fmt.Sprintf("mod%d.c", m)
		next, err := e.cur.EditBody(file, fmt.Sprintf("mod%d_calc%d", m, e.rng.Intn(projFuncsPer)))
		if err != nil {
			return "", err
		}
		e.cur = next
		return file, nil
	case editAnnot:
		h := fmt.Sprintf("mod%d.h", m)
		if e.dropped[m] {
			headers := make(map[string]string, len(e.cur.Headers))
			for k, v := range e.cur.Headers {
				headers[k] = v
			}
			headers[h] = e.base.Headers[h]
			e.cur = &testgen.Program{Files: e.cur.Files, Headers: headers, Bugs: e.cur.Bugs, Lines: e.cur.Lines}
		} else {
			next, err := e.cur.EditAnnot(fmt.Sprintf("mod%d", m))
			if err != nil {
				return "", err
			}
			e.cur = next
		}
		e.dropped[m] = !e.dropped[m]
		return h, nil
	}
	return "", nil
}

// source returns the current text of a file of the program.
func source(p *testgen.Program, name string) string {
	if s, ok := p.Files[name]; ok {
		return s
	}
	return p.Headers[name]
}

// verdict is what a check reported: exit status and standard output.
type verdict struct {
	exit   int
	stdout string
}

// recall is the share of p's seeded bugs that out reports at their
// ground-truth line.
func recall(p *testgen.Program, out string) float64 {
	found := 0
	for _, bug := range p.Bugs {
		head := fmt.Sprintf("%s:%d: ", bug.File, bug.Line)
		if strings.HasPrefix(out, head) || strings.Contains(out, "\n"+head) {
			found++
		}
	}
	return ratio(found, len(p.Bugs))
}

// refCLI is the reference verdict of the CLI workloads: a cold, cacheless
// -jobs 1 check of p's .c files, in process, on the CLI's own code path.
func refCLI(p *testgen.Program) verdict {
	cfg, err := cli.ParseConfig(append([]string{"-jobs", "1"}, cNames(p)...), io.Discard)
	if err != nil {
		return verdict{exit: -1}
	}
	var out bytes.Buffer
	var sess cli.Session
	code, _ := sess.Execute(cfg, p.Files, cpp.MapIncluder(p.AllSources()), &out, io.Discard)
	return verdict{exit: code, stdout: out.String()}
}

// moduleRequest is the modules-mode request of serve-mixed: every .c file
// its own module, checked against the library built from all headers.
func moduleRequest(p *testgen.Program) map[string]map[string]string {
	mods := make(map[string]map[string]string, len(p.Files))
	for name, src := range p.Files {
		mods[strings.TrimSuffix(name, ".c")] = map[string]string{name: src}
	}
	return mods
}

// modRefs computes reference verdicts of modules-mode requests: a cold,
// cacheless -jobs 1 check of each module against the interface library,
// concatenated in sorted module order exactly as the server does. A
// module's verdict depends only on its bytes, the headers and the mode, so
// it is memoized on those; every memoized verdict was itself computed cold.
type modRefs struct {
	mu   sync.Mutex
	libs map[string]*library.Library
	mods map[string]verdict
}

func newModRefs() *modRefs {
	return &modRefs{libs: map[string]*library.Library{}, mods: map[string]verdict{}}
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func headersDigest(headers map[string]string) string {
	var parts []string
	for _, n := range sortedKeys(headers) {
		parts = append(parts, n, headers[n])
	}
	return digest(parts...)
}

func (r *modRefs) library(headers map[string]string, hd string) *library.Library {
	r.mu.Lock()
	defer r.mu.Unlock()
	if lib, ok := r.libs[hd]; ok {
		return lib
	}
	lib := library.Build(core.CheckSources(headers, core.Options{}).Program)
	r.libs[hd] = lib
	return lib
}

// verdict returns the reference for the whole request over p.
func (r *modRefs) verdict(p *testgen.Program, explain bool) verdict {
	hd := headersDigest(p.Headers)
	var out strings.Builder
	v := verdict{}
	for _, name := range cNames(p) {
		key := digest(hd, name, p.Files[name], fmt.Sprint(explain))
		r.mu.Lock()
		mv, ok := r.mods[key]
		r.mu.Unlock()
		if !ok {
			mv = r.module(p, name, r.library(p.Headers, hd), explain)
			r.mu.Lock()
			r.mods[key] = mv
			r.mu.Unlock()
		}
		out.WriteString(mv.stdout)
		if mv.exit > v.exit {
			v.exit = mv.exit
		}
	}
	v.stdout = out.String()
	return v
}

func (r *modRefs) module(p *testgen.Program, name string, lib *library.Library, explain bool) verdict {
	args := []string{"-jobs", "1"}
	if explain {
		args = append(args, "-explain", "-validate")
	}
	cfg, err := cli.ParseConfig(append(args, name), io.Discard)
	if err != nil {
		return verdict{exit: -1}
	}
	cfg.Lib = lib
	files := map[string]string{name: p.Files[name]}
	var out bytes.Buffer
	var sess cli.Session
	code, _ := sess.Execute(cfg, files, includer(p.Headers, files), &out, io.Discard)
	return verdict{exit: code, stdout: out.String()}
}

// includer resolves includes like the server does: the request's headers
// plus the module's own files.
func includer(headers, files map[string]string) cpp.Includer {
	m := make(map[string]string, len(headers)+len(files))
	for k, v := range headers {
		m[k] = v
	}
	for k, v := range files {
		m[k] = v
	}
	return cpp.MapIncluder(m)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// parallel runs f(0..n-1) on checkJobs workers and waits for them.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < checkJobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
