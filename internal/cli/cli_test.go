package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const fixtureSrc = `extern /*@only@*/ void *malloc(unsigned long);

int leaky (int n)
{
	char *p;
	p = (char *) malloc (10);
	if (n > 0) { p = (char *) 0; }
	return n;
}
`

func writeFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fixture.c")
	if err := os.WriteFile(path, []byte(fixtureSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI invokes Run with buffered writers.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := Run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestCacheDirWarmOutputIdentical(t *testing.T) {
	src := writeFixture(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	for _, jobs := range []int{1, 8} {
		code, cold, coldErr := runCLI(t, "-cache-dir", cacheDir, "-jobs", strconv.Itoa(jobs), src)
		if code != 1 || cold == "" {
			t.Fatalf("jobs=%d cold: exit=%d out=%q", jobs, code, cold)
		}
		code, warm, warmErr := runCLI(t, "-cache-dir", cacheDir, "-jobs", strconv.Itoa(jobs), src)
		if code != 1 {
			t.Fatalf("jobs=%d warm exit = %d", jobs, code)
		}
		if warm != cold || warmErr != coldErr {
			t.Fatalf("jobs=%d warm output differs:\n%q\nvs\n%q", jobs, cold, warm)
		}
	}
}

func TestCacheDirWithoutFlagUnchanged(t *testing.T) {
	src := writeFixture(t)
	_, plain, _ := runCLI(t, src)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	_, cached, _ := runCLI(t, "-cache-dir", cacheDir, src)
	if plain == "" || plain != cached {
		t.Fatalf("cached output differs from plain run:\n%q\nvs\n%q", plain, cached)
	}
}

// -dump-lib must produce an identical library whether the result came from
// a fresh check or a cache replay.
func TestDumpLibOnCacheHit(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "m.c")
	if err := os.WriteFile(src, []byte("int twice (int x) { return x * 2; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	coldLib := filepath.Join(dir, "cold.lib")
	warmLib := filepath.Join(dir, "warm.lib")
	if code, _, errOut := runCLI(t, "-cache-dir", cacheDir, "-dump-lib", coldLib, src); code != 0 {
		t.Fatalf("cold exit = %d: %s", code, errOut)
	}
	if code, _, errOut := runCLI(t, "-cache-dir", cacheDir, "-dump-lib", warmLib, src); code != 0 {
		t.Fatalf("warm exit = %d: %s", code, errOut)
	}
	a, err := os.ReadFile(coldLib)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(warmLib)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("library bytes differ across cache hit: %d vs %d bytes", len(a), len(b))
	}

	// The warm library must still work for modular checking.
	use := filepath.Join(dir, "use.c")
	if err := os.WriteFile(use, []byte("extern int twice (int x);\nint use (void) { return twice (21); }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runCLI(t, "-lib", warmLib, use); code != 0 {
		t.Fatalf("modular exit = %d: %s", code, errOut)
	}
}

// -cfg disables the cache (a hit has no parsed units to dump), so the CFG
// dump is present and identical on every run.
func TestCFGWithCacheDir(t *testing.T) {
	src := writeFixture(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	_, first, _ := runCLI(t, "-cache-dir", cacheDir, "-cfg", "leaky", src)
	_, second, _ := runCLI(t, "-cache-dir", cacheDir, "-cfg", "leaky", src)
	if first == "" || first != second {
		t.Fatalf("-cfg output unstable under -cache-dir:\n%q\nvs\n%q", first, second)
	}
}

// A cache directory shared by runs with and without -lib must keep their
// results apart: the library's annotations change the diagnostics, and
// only the dependency fingerprints recorded in the entries (all "" for a
// run without a library) tell the two runs' entries apart, since the
// module key covers the source alone. Both orders are checked.
func TestCacheIsolatedAcrossLibraries(t *testing.T) {
	dir := t.TempDir()
	api := filepath.Join(dir, "api.h")
	use := filepath.Join(dir, "use.c")
	lib := filepath.Join(dir, "api.lib")
	if err := os.WriteFile(api, []byte("extern /*@null@*/ char *get (void);\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(use, []byte("void use (void)\n{\n\tchar *p = get ();\n\t*p = 1;\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runCLI(t, "-dump-lib", lib, api); code != 0 {
		t.Fatalf("dump exit = %d: %s", code, errOut)
	}
	_, coldLib, _ := runCLI(t, "-lib", lib, use)
	_, coldPlain, _ := runCLI(t, use)
	if !strings.Contains(coldLib, "null") {
		t.Fatalf("cold -lib run reports no null dereference:\n%s", coldLib)
	}
	if strings.Contains(coldPlain, "null") {
		t.Fatalf("cold run without a library reports a null dereference:\n%s", coldPlain)
	}
	for _, order := range [][]bool{{false, true}, {true, false}} {
		cacheDir := filepath.Join(t.TempDir(), "cache")
		for _, withLib := range order {
			args, want := []string{"-cache-dir", cacheDir, use}, coldPlain
			if withLib {
				args, want = append([]string{"-lib", lib}, args...), coldLib
			}
			if _, got, _ := runCLI(t, args...); got != want {
				t.Errorf("order %v, -lib=%v: output differs from the cold run:\n%s\nwant:\n%s", order, withLib, got, want)
			}
		}
	}
}
