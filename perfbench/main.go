// Command perfbench is the repository benchmark. It generates one seeded
// testgen project, drives one workload against the real golclint binary for
// a fixed wall time, checks every verdict against a cold, cacheless
// reference check, and prints one JSON result line.
//
// run.sh builds golclint and this program and then runs it; see README.md
// for the workloads, the metrics and how to read a traced run.
//
//	perfbench -bin golclint -work dir -root . --workload edit-loop --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run splits the same workload's time across golclint's
// layers, timed from outside by calling each layer's public functions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's configuration.
type bench struct {
	bin  string        // golclint binary
	work string        // private scratch directory of this run
	seed int64         // workload seed
	dur  time.Duration // measured wall time
}

// workload runs one named workload, untraced or traced.
type workload struct {
	run    func(b *bench) (*outcome, error)
	traced func(b *bench) (*outcome, error)
}

var workloads = map[string]workload{
	"edit-loop":   {run: runEditLoop, traced: traceEditLoop},
	"serve-mixed": {run: runServeMixed, traced: traceServeMixed},
}

// outcome is what a workload hands back: verdict tallies, metrics, and the
// facts the stamp records.
type outcome struct {
	attempted, failed int
	recall            float64 // mean share of seeded bugs reported, over checked verdicts
	metrics           map[string]metric
	samples           int // timed checks (untraced) or traced iterations
	notes             []string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	bin := fl.String("bin", "", "golclint binary to benchmark")
	work := fl.String("work", "", "scratch directory (a per-run subdirectory is created and removed)")
	root := fl.String("root", ".", "repository root, for the result stamp")
	name := fl.String("workload", "", "workload: edit-loop or serve-mixed")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 30, "measured wall time per run")
	trace := fl.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -bin, -work, --seconds >= 1, --trace 0|1 and --workload one of %s\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, time.Now().Unix(), os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	// A run deletes nothing, not even its own caches: on ext4 mounted with
	// online discard, deleting thousands of files makes file creation cost
	// more system time for minutes afterwards, which would slow the checks
	// of this run and the next. It flushes earlier runs' writes instead, so
	// every run starts from a clean page cache.
	syscall.Sync()
	absBin, _ := filepath.Abs(*bin)
	b := &bench{bin: absBin, work: dir, seed: *seed, dur: time.Duration(*seconds) * time.Second}

	runner := w.run
	if *trace == 1 {
		runner = w.traced
	}
	out, err := runner(b)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	expected := endToEndUnits
	if *trace == 1 {
		expected = perLayerUnits
	}
	res := &result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for n, unit := range expected {
		m, ok := out.metrics[n]
		if !ok || m.Unit != unit {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s missing or not in %s\n", *name, n, unit)
			return 1
		}
		res.Metrics[n] = m
	}
	res.Correct = out.failed == 0 && out.attempted > 0 && out.recall == 1

	stamp := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"commit": commitOf(*root), "source_sha256": sourceDigest(*root),
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"caches_on_tmpfs": onTmpfs(dir), "samples": out.samples,
		"error_rate": 1 - ratio(out.attempted-out.failed, out.attempted),
	}
	if len(out.notes) > 0 {
		stamp["notes"] = out.notes
	}
	sb, _ := json.Marshal(stamp)
	fmt.Fprintf(stdout, "stamp %s\n", sb)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-26s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rb)
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// endToEndUnits and perLayerUnits are the metrics a run must report, with
// their units; BENCHMARK.json lists the same names.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"latency_p50_ms":   "ms",
	"latency_p90_ms":   "ms",
	"checks_per_s":     "1/s",
	"cpu_ms_per_check": "ms",
	"peak_rss_mb":      "MB",
	"cache_mb":         "MB",
	"ok_rate":          "ratio",
	"recall_seeded":    "ratio",
}

var perLayerUnits = map[string]string{
	"cpp.preprocess_ms":         "ms",
	"cparse.parse_ms":           "ms",
	"cparse.tokens_per_s":       "1/s",
	"sema.analyze_ms":           "ms",
	"cfg.build_ms":              "ms",
	"cfg.blocks":                "count",
	"core.check_ms":             "ms",
	"core.functions_checked":    "count",
	"library.install_ms":        "ms",
	"library.fingerprint_ms":    "ms",
	"library.export_ms":         "ms",
	"cache.key_ms":              "ms",
	"cache.get_ms":              "ms",
	"cache.gets":                "count",
	"cache.hit_ratio":           "ratio",
	"cache.decode_ms":           "ms",
	"cache.put_ms":              "ms",
	"cache.puts":                "count",
	"cache.bytes_written":       "bytes",
	"cache.files_written":       "count",
	"fncache.replayed":          "count",
	"fncache.rechecked":         "count",
	"cache.cost_ratio":          "ratio",
	"fncache.cost_ratio":        "ratio",
	"validate.apply_ms":         "ms",
	"validate.confirmed_ratio":  "ratio",
	"diag.render_ms":            "ms",
	"cli.load_inputs_ms":        "ms",
	"cli.exec_overhead_ms":      "ms",
	"server.encode_ms":          "ms",
	"server.decode_ms":          "ms",
	"server.execute_ms":         "ms",
	"server.overhead_ms":        "ms",
	"server.memo_hit_ratio":     "ratio",
	"server.coalesced":          "count",
	"server.rejected":           "count",
	"runtime.alloc_mb":          "MB",
	"runtime.gc_cpu_ms":         "ms",
	"pipeline.unattributed_pct": "%",
	"trace.overhead_pct":        "%",
}

// commitOf reads the checked-out commit from root/.git without running
// git; "unknown" when root is not a git work tree (the benchmark's own
// checkouts are not), in which case source_sha256 identifies the code.
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (names and
// contents, in sorted order), skipping dot directories such as the build
// directory, so two results name the same code even outside git.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// onTmpfs reports whether dir lies on a tmpfs mount.
func onTmpfs(dir string) bool {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	return st.Type == 0x01021994 // TMPFS_MAGIC
}

// dirStats returns the apparent bytes and the number of regular files under
// dir.
func dirStats(dir string) (bytes int64, files int) {
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil && info.Mode().IsRegular() {
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files
}

// freshDir creates a new empty directory under the run's scratch space.
func (b *bench) freshDir(parts ...string) (string, error) {
	d := filepath.Join(append([]string{b.work}, parts...)...)
	return d, os.MkdirAll(d, 0o755)
}

func itoa(i int) string { return strconv.Itoa(i) }
