package core

// Function-granular incremental checking: the analysis cache split below
// module level. A module whose content hash misses (one function was
// edited) no longer re-checks every function — each function definition
// gets its own content-addressed sub-entry, keyed by the bytes of its
// token span, its position, a hash of everything in the module *outside*
// the spans (declarations, typedefs, headers — the "skeleton"), and, for
// validate runs, the bodies of the module functions it can call into. A
// sub-entry records the interface fingerprint of every symbol the function
// consulted (its use-set), so an annotation change invalidates exactly the
// functions that use that symbol. Functions whose key and use-set still
// match replay their buffered raw diagnostics — witnesses, notes, and
// validation tags included — through the same serial merge a cold check
// uses, so output stays byte-identical at any worker count.
//
// Fail-safe contract: anything surprising (parse errors, lexer errors in
// the expanded text, unbalanced braces, a function body the segmenter
// cannot align with the AST) disables the layer for the whole module and
// the run degrades to the module-granular path. The layer can only make a
// run faster, never different.

import (
	"sort"
	"strconv"

	"golclint/internal/cache"
	"golclint/internal/cast"
	"golclint/internal/ctoken"
	"golclint/internal/diag"
	"golclint/internal/obs"
	"golclint/internal/sema"
)

// fnSpanInfo is one function definition's resolved token span.
type fnSpanInfo struct {
	text    string   // raw expanded-source bytes of the span
	unit    string   // physical file the span came from
	posFile string   // logical file of the span's first token
	posLine int      // logical line of the span's first token
	idents  []string // identifier tokens of the span, in source order
}

// diagPair links a merged (reported) diagnostic back to the raw buffered
// diagnostic it was replayed from, so validation tags attached to the
// merged copy after checking can be written back onto the buffer before
// the sub-entry is stored.
type diagPair struct {
	merged   *diag.Diagnostic
	buffered *diag.Diagnostic
}

// fnCacheCtx carries the function-granular cache layer through one module
// check. Index i throughout refers to the i-th function in checkProgram's
// enumeration order (units in sorted file order, definitions in source
// order within each unit).
type fnCacheCtx struct {
	store cache.Store
	env   func(string) string // per-symbol interface fingerprints

	fns   []*cast.FuncDef
	spans []fnSpanInfo
	keys  []string
	hits  []*cache.Entry // non-nil => replay instead of checking

	// Cold-function outputs, filled during checking and stored after
	// validation.
	results [][]*diag.Diagnostic
	stats   []cache.FnStats
	uses    []map[string]bool
	pairs   []diagPair
}

// segment is one top-level region of an expanded file: either a candidate
// function definition (open >= 0, the offset of its depth-0 '{') or a
// skeleton piece (declarations, typedefs, stray semicolons).
type segment struct {
	start, end int    // byte offsets into the expanded text
	open       int    // offset of the depth-0 '{', or -1
	posFile    string // logical position of the first token
	posLine    int
	idents     []string // identifier tokens of the segment, in source order
}

// fileScan is the one lexical pass a cacheable miss makes over an expanded
// file, shared by both cache granularities: the module entry records deps
// for every identifier in idents, and the function layer takes each span's
// identifiers from its segment.
type fileScan struct {
	idents []string  // every identifier token, in source order
	segs   []segment // top-level segments, in source order
	ok     bool      // segs is usable: no lexical errors, balanced braces
}

// scanFile lexes one expanded file, collecting its identifiers and
// splitting it into top-level segments with a brace-depth counter: a
// segment ends at a depth-0 ';' or at the '}' that returns the depth to 0.
// Comments and whitespace between segments belong to no segment
// (suppression comments re-parse every run and apply at merge time, so
// they need no invalidation). The identifier list always covers the whole
// file — it over-approximates the file's interface references, which keeps
// dependency recording sound without an AST walk — but ok is false on
// lexical errors or unbalanced braces.
func scanFile(name, src string) fileScan {
	var sc fileScan
	lx := ctoken.NewLexer(name, src)
	depth := 0
	balanced := true
	pending := true
	var cur segment
	first := 0 // index in sc.idents of cur's first identifier
	closeSeg := func(end int) {
		cur.end = end
		cur.idents = sc.idents[first:len(sc.idents):len(sc.idents)]
		sc.segs = append(sc.segs, cur)
		pending = true
	}
	for {
		t := lx.Next()
		if t.Kind == ctoken.EOF {
			break
		}
		if pending {
			cur = segment{start: t.Pos.Off, open: -1, posFile: t.Pos.File, posLine: t.Pos.Line}
			first = len(sc.idents)
			pending = false
		}
		switch t.Kind {
		case ctoken.Ident:
			sc.idents = append(sc.idents, t.Text)
		case ctoken.LBrace:
			if depth == 0 {
				cur.open = t.Pos.Off
			}
			depth++
		case ctoken.RBrace:
			depth--
			if depth < 0 {
				balanced = false
				depth = 0
			}
			if depth == 0 {
				closeSeg(t.Pos.Off + 1)
			}
		case ctoken.Semi:
			if depth == 0 {
				closeSeg(t.Pos.Off + 1)
			}
		}
	}
	if !balanced || depth != 0 || len(lx.Errors()) > 0 {
		return sc
	}
	if !pending {
		// Trailing tokens with no terminator cannot be a function
		// definition; keep them as a skeleton piece.
		cur.open = -1
		closeSeg(len(src))
	}
	sc.ok = true
	return sc
}

// newFnCacheCtx builds the layer for one module from its files' scans:
// aligns candidate segments with the AST's function definitions (a
// function's span is the segment whose depth-0 '{' is its body's '{'),
// hashes the skeleton, derives each function's sub-entry key, and probes
// the store. Returns nil — layer disabled — if any file failed to segment
// or any function definition fails to align.
func newFnCacheCtx(names []string, fronts []fileFront, prog *sema.Program, kp keyPrefix, opt Options) *fnCacheCtx {
	if len(prog.Units) != len(names) {
		return nil
	}
	env := opt.EnvFingerprint(prog)
	ctx := &fnCacheCtx{store: opt.Cache, env: env}

	// Skeleton: everything outside the matched spans, position-sensitive.
	// A declaration edit — or a line shift that moves one — invalidates
	// every function in the module; an edit inside one function's span
	// leaves the skeleton (and therefore every other function) untouched.
	// The skeleton hash only feeds sub-entry keys, which carry the modes.
	skh := kp.hasher("fnskeleton", false)

	type spanned struct {
		fn *cast.FuncDef
		sp fnSpanInfo
	}
	var all []spanned
	for ui, u := range prog.Units {
		if !fronts[ui].scan.ok {
			return nil
		}
		segs := fronts[ui].scan.segs
		matched := make([]bool, len(segs))
		byOpen := map[int]int{}
		for si, s := range segs {
			if s.open >= 0 {
				byOpen[s.open] = si
			}
		}
		for _, f := range u.Funcs() {
			if f.Body == nil {
				return nil
			}
			si, ok := byOpen[f.Body.Pos().Off]
			if !ok || matched[si] {
				return nil
			}
			matched[si] = true
			s := segs[si]
			text := fronts[ui].expanded[s.start:s.end]
			all = append(all, spanned{fn: f, sp: fnSpanInfo{
				text: text, unit: names[ui],
				posFile: s.posFile, posLine: s.posLine,
				idents: s.idents,
			}})
		}
		skh.Component(names[ui])
		for si, s := range segs {
			if matched[si] {
				continue
			}
			skh.Component(s.posFile)
			skh.Component(strconv.Itoa(s.posLine))
			skh.Component(fronts[ui].expanded[s.start:s.end])
		}
	}
	skeleton := skh.Sum()

	n := len(all)
	ctx.fns = make([]*cast.FuncDef, n)
	ctx.spans = make([]fnSpanInfo, n)
	ctx.keys = make([]string, n)
	ctx.hits = make([]*cache.Entry, n)
	ctx.results = make([][]*diag.Diagnostic, n)
	ctx.stats = make([]cache.FnStats, n)
	ctx.uses = make([]map[string]bool, n)
	for i, s := range all {
		ctx.fns[i] = s.fn
		ctx.spans[i] = s.sp
	}

	// Validate runs interpret function bodies, so a validated diagnostic
	// in f depends on the body text of every module function f can reach;
	// the key gains the transitive call closure over span identifiers.
	var closures []string
	if opt.Validate != nil {
		closures = callClosures(ctx)
	}

	for i := range ctx.fns {
		kh := kp.hasher("fnsub", true)
		kh.Component(skeleton)
		sp := &ctx.spans[i]
		kh.Component(sp.unit)
		kh.Component(sp.posFile)
		kh.Component(strconv.Itoa(sp.posLine))
		kh.Component(sp.text)
		if closures != nil {
			kh.Component(closures[i])
		}
		ctx.keys[i] = kh.Sum()
		if e, ok := ctx.store.Get(ctx.keys[i]); ok && cache.DepsMatch(e.Deps, ctx.env) {
			ctx.hits[i] = e
		}
	}
	return ctx
}

// callClosures computes, per function, a hash over the transitive set of
// module function bodies reachable from it (self included): the names and
// span texts, in sorted name order. Cross-module callees have no body here
// and are covered by their interface fingerprints instead.
func callClosures(ctx *fnCacheCtx) []string {
	byName := map[string]int{}
	for i, f := range ctx.fns {
		byName[f.Name] = i
	}
	out := make([]string, len(ctx.fns))
	for i := range ctx.fns {
		reach := map[int]bool{i: true}
		work := []int{i}
		for len(work) > 0 {
			j := work[len(work)-1]
			work = work[:len(work)-1]
			for _, id := range ctx.spans[j].idents {
				if k, ok := byName[id]; ok && !reach[k] {
					reach[k] = true
					work = append(work, k)
				}
			}
		}
		names := make([]string, 0, len(reach))
		for k := range reach {
			names = append(names, ctx.fns[k].Name)
		}
		sort.Strings(names)
		kh := cache.NewKeyHasher("fnclosure", "")
		for _, nm := range names {
			kh.Component(nm)
			kh.Component(ctx.spans[byName[nm]].text)
		}
		out[i] = kh.Sum()
	}
	return out
}

// replayHit restores one cached function's observable effects: its raw
// diagnostic buffer (merged later in serial order, exactly like a cold
// buffer) and the analysis counters the cold check recorded.
func (ctx *fnCacheCtx) replayHit(i int, m *obs.Metrics) []*diag.Diagnostic {
	e := ctx.hits[i]
	m.Add(obs.FuncCacheHits, 1)
	m.Add(obs.FuncReplayedDiags, int64(len(e.Diags)))
	if e.Fn != nil {
		m.Add(obs.CFGBlocks, e.Fn.Blocks)
		m.Add(obs.CFGEdges, e.Fn.Edges)
		m.Add(obs.ConfluenceMerges, e.Fn.Merges)
	}
	return e.Diags
}

// finish runs after validation: validation tags attached to the merged
// diagnostics are written back onto the raw buffers they came from, and
// every cold-checked function's sub-entry is stored with its use-set
// fingerprints. A failed write is a lost optimization, not an error.
func (ctx *fnCacheCtx) finish() {
	for _, p := range ctx.pairs {
		p.buffered.Validation = p.merged.Validation
	}
	for i := range ctx.fns {
		if ctx.hits[i] != nil {
			continue
		}
		deps := map[string]string{}
		record := func(name string) { deps[name] = ctx.env(name) }
		// The lexical identifier set over-approximates most of the
		// use-set; the names recorded during checking (callee and global
		// lookups) close the gap for symbols consulted through
		// interface-declared indirection (a globals clause, say), and the
		// function's own name covers its signature and globals list.
		for _, id := range ctx.spans[i].idents {
			record(id)
		}
		record(ctx.fns[i].Name)
		for name := range ctx.uses[i] {
			record(name)
		}
		st := ctx.stats[i]
		ctx.store.Put(ctx.keys[i], &cache.Entry{
			Diags: ctx.results[i],
			Deps:  deps,
			Fn:    &cache.FnStats{Blocks: st.Blocks, Edges: st.Edges, Merges: st.Merges},
		})
	}
}
