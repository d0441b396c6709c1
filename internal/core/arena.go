package core

import (
	"golclint/internal/cfg"
	"golclint/internal/obs"
)

// arenaChunk is the number of objects per arena chunk. Chunks are fixed
// arrays so handed-out pointers stay stable while the arena grows.
const arenaChunk = 256

// arena is a per-worker free-list for refStates and store headers. Nothing
// allocated from it outlives the function being checked (diagnostics render
// their message text immediately), so reset simply rewinds the cursors and
// the chunks are reused for the next function.
type arena struct {
	refChunks [][]refState
	refChunk  int
	refN      int

	stChunks [][]store
	stChunk  int
	stN      int
}

func newArena() *arena {
	return &arena{}
}

// reset rewinds the arena; existing chunks are reused, slots are re-zeroed
// on allocation.
func (a *arena) reset() {
	a.refChunk, a.refN = 0, 0
	a.stChunk, a.stN = 0, 0
}

// allocRef returns a zeroed refState.
func (a *arena) allocRef() *refState {
	if a.refChunk == len(a.refChunks) {
		a.refChunks = append(a.refChunks, make([]refState, arenaChunk))
	}
	p := &a.refChunks[a.refChunk][a.refN]
	a.refN++
	if a.refN == arenaChunk {
		a.refChunk++
		a.refN = 0
	}
	*p = refState{}
	return p
}

// allocStore returns a zeroed store header.
func (a *arena) allocStore() *store {
	if a.stChunk == len(a.stChunks) {
		a.stChunks = append(a.stChunks, make([]store, arenaChunk))
	}
	p := &a.stChunks[a.stChunk][a.stN]
	a.stN++
	if a.stN == arenaChunk {
		a.stChunk++
		a.stN = 0
	}
	*p = store{}
	return p
}

// fnState bundles the per-worker state machinery the checker threads
// through every store: the key interner, the arena, the CFG builder, and
// the ownership-generation counter that drives copy-on-write. One fnState
// is created per worker in the -jobs fan-out and reset between functions,
// so allocations amortize across the whole run.
type fnState struct {
	in  *interner
	ar  *arena
	cfg *cfg.Builder

	// ownerSeq hands out store ownership generations; a refState may be
	// mutated in place only by the store whose owner tag it carries.
	ownerSeq uint32

	// Counters flushed into obs.Metrics per function (single-threaded
	// within a worker, so plain ints).
	clones int64 // store clones (O(1) header copies)
	copied int64 // refStates copied by the copy-on-write fault path

	// worker is this fnState's index in the checking fan-out (0 when
	// serial); spanRoot is the span the worker's function spans attach to.
	worker   int
	spanRoot *obs.Span

	// prov is the provenance recorder, allocated once per worker when
	// -explain is on and nil otherwise (the hot path tests one pointer).
	prov *provRec
}

func newFnState() *fnState {
	return &fnState{in: newInterner(), ar: newArena(), cfg: cfg.NewBuilder()}
}

// reset prepares the fnState for the next function.
func (fs *fnState) reset() {
	fs.in.reset()
	fs.ar.reset()
	fs.ownerSeq = 0
	fs.clones = 0
	fs.copied = 0
}

// newOwner returns a fresh ownership generation.
func (fs *fnState) newOwner() uint32 {
	fs.ownerSeq++
	return fs.ownerSeq
}

// newStore returns an empty store owned by fs.
func (fs *fnState) newStore() *store {
	st := fs.ar.allocStore()
	st.fs = fs
	st.owner = fs.newOwner()
	return st
}
