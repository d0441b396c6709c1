package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"golclint/internal/cli"
)

func TestRunSample(t *testing.T) {
	// Locate testdata relative to the module root.
	root := "../../testdata"
	if _, err := os.Stat(filepath.Join(root, "sample.c")); err != nil {
		t.Skip("testdata not present")
	}
	if code := run([]string{filepath.Join(root, "sample.c")}); code != 1 {
		t.Fatalf("sample.c exit = %d, want 1 (anomalies)", code)
	}
	if code := run([]string{filepath.Join(root, "list.c")}); code != 1 {
		t.Fatalf("list.c exit = %d, want 1", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code := run([]string{"-flags", "+bogus", "x.c"}); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
}

func TestRunNoFiles(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Fatalf("no files exit = %d, want 2", code)
	}
}

func TestDumpAndLoadLibrary(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "m.c")
	if err := os.WriteFile(src, []byte("int twice (int x) { return x * 2; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	libPath := filepath.Join(dir, "m.lib")
	if code := run([]string{"-dump-lib", libPath, src}); code != 0 {
		t.Fatalf("dump exit = %d", code)
	}
	use := filepath.Join(dir, "use.c")
	if err := os.WriteFile(use, []byte("extern int twice (int x);\nint use (void) { return twice (21); }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-lib", libPath, use}); code != 0 {
		t.Fatalf("modular exit = %d", code)
	}
}

func TestRunEmployeeDatabase(t *testing.T) {
	files, err := filepath.Glob("../../testdata/db/*.c")
	if err != nil || len(files) == 0 {
		t.Skip("testdata/db not present")
	}
	if code := run(files); code != 0 {
		t.Fatalf("final database exit = %d, want 0 (clean)", code)
	}
}

// Every flag cli.ParseConfig registers must be documented in the package
// doc of main.go.
func TestPackageDocListsEveryFlag(t *testing.T) {
	var usage bytes.Buffer
	if _, err := cli.ParseConfig([]string{"-h"}, &usage); err == nil {
		t.Fatal("-h parsed without error; want flag.ErrHelp")
	}
	names := regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1)
	if len(names) == 0 {
		t.Fatalf("no flags in usage text:\n%s", usage.String())
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	for _, m := range names {
		if !regexp.MustCompile(`(?m)^//\s+-` + regexp.QuoteMeta(m[1]) + `[\s=]`).MatchString(doc) {
			t.Errorf("flag -%s is missing from the package doc", m[1])
		}
	}
}
