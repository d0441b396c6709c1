package library

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/testgen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fingerprints.golden")

// goldenLibraries are the libraries whose fingerprints are pinned: the
// testdata/db headers (the paper's employee database), one generated
// annotated program's headers, and a small interface reusing one name
// across namespaces.
func goldenLibraries(t *testing.T) map[string]*Library {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/db/*.h")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata/db headers: %v", err)
	}
	db := map[string]string{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		db[filepath.Base(p)] = string(b)
	}
	gen := testgen.Generate(testgen.Config{
		Seed: 1, Modules: 6, FuncsPer: 3, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 2, testgen.BugNullDeref: 2},
	})
	// A name in several namespaces combines its digests.
	shared := map[string]string{"shared.h": ifaceV1 + "extern int dup (int n);\nextern int dup;\nenum { dup = 3 };\n"}
	libs := map[string]*Library{}
	for name, files := range map[string]map[string]string{"db": db, "testgen-seed1": gen.Headers, "shared": shared} {
		res := core.CheckSources(files, core.Options{Includes: cpp.MapIncluder(files)})
		if res.Program == nil {
			t.Fatalf("%s: no program", name)
		}
		libs[name] = Build(res.Program)
	}
	return libs
}

// renderFingerprints lists every library's fingerprints, one
// "library symbol fingerprint" line each, in sorted order.
func renderFingerprints(libs map[string]*Library) string {
	var lines []string
	for lname, lib := range libs {
		for sym, fp := range lib.Fingerprints() {
			lines = append(lines, fmt.Sprintf("%s %s %s", lname, sym, fp))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// Interface fingerprints decide whether existing cache entries still hit,
// so their values are pinned across versions: a change here silently
// turns every cached module and function sub-entry cold (or, worse, lets
// one hit against a different interface). Deliberate format changes must
// bump core.Version and regenerate with -update.
func TestFingerprintsGolden(t *testing.T) {
	libs := goldenLibraries(t)
	got := renderFingerprints(libs)
	const path = "testdata/fingerprints.golden"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("fingerprints drifted from %s:\n%s", path, lineDiff(string(want), got))
	}

	// A library decoded from its gob form fingerprints identically.
	for name, lib := range libs {
		var buf bytes.Buffer
		if err := lib.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := renderFingerprints(map[string]*Library{name: lib}), renderFingerprints(map[string]*Library{name: dec}); a != b {
			t.Errorf("%s: fingerprints changed across encode/decode:\n%s", name, lineDiff(a, b))
		}
	}
}

// lineDiff lists the lines only in want ("-") and only in got ("+").
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
