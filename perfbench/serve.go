package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"golclint/internal/server"
	"golclint/internal/testgen"
)

// daemon is a live `golclint -serve` subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	logs *addrWatcher
}

// addrWatcher collects the daemon's standard error and reports the listen
// address from its "serving on http://..." line.
type addrWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		s := w.buf.String()
		if i := strings.Index(s, "serving on http://"); i >= 0 {
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				w.addr <- strings.TrimPrefix(s[i:i+j], "serving on ")
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *addrWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon starts golclint -serve over cacheDir on a free loopback port
// and returns once /healthz answers.
func (b *bench) startDaemon(cacheDir string) (*daemon, error) {
	logs := &addrWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(b.bin, "-serve", "127.0.0.1:0", "-cache-dir", cacheDir)
	cmd.Dir = b.work
	cmd.Stderr = logs
	// The daemon must not outlive perfbench, even if perfbench dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logs: logs}
	select {
	case d.base = <-logs.addr:
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("daemon did not report its address: %s", logs.String())
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon /healthz never answered: %v", err)
		}
	}
}

// stop kills the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// newClient is one benchmark client: one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// post sends one /check request and decodes the response. A non-200
// status is an error.
func (d *daemon) post(c *http.Client, name string, body []byte) (verdict, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+"/check", bytes.NewReader(body))
	if err != nil {
		return verdict{}, 0, err
	}
	req.Header.Set("X-Golclint-Client", name)
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return verdict{}, time.Since(start), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(start)
	if err != nil {
		return verdict{}, rt, err
	}
	if resp.StatusCode != http.StatusOK {
		return verdict{}, rt, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var cr server.CheckResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		return verdict{}, rt, err
	}
	return verdict{exit: cr.Exit, stdout: cr.Stdout}, rt, nil
}

// stats fetches the daemon's /stats document.
func (d *daemon) stats() (server.Stats, error) {
	var st server.Stats
	resp, err := http.Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// cpu is the daemon's user plus system CPU so far, from /proc.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	k, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(u+k) * 10 * time.Millisecond, nil
}

// peakRSS is the daemon's VmHWM in MB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// storeMB is the daemon's store size: the disk directory's apparent bytes
// plus the resident bytes /stats reports.
func (d *daemon) storeMB(dir string) (float64, error) {
	st, err := d.stats()
	if err != nil {
		return 0, err
	}
	n, _ := dirStats(dir)
	return float64(n+st.CacheStores["mem"].Bytes) / mb, nil
}

// checkRequest is serve-mixed's modules-mode request over p.
func checkRequest(p *testgen.Program, explain bool) server.CheckRequest {
	return server.CheckRequest{
		Modules: moduleRequest(p), Headers: p.Headers, Jobs: checkJobs,
		Explain: explain, Validate: explain,
	}
}

// serveMixedBlock is serve-mixed's mix per 20 requests: 12 one-function
// edits, 5 resends, 2 header-annotation edits, 1 explain+validate.
var serveMixedBlock = block(map[editKind]int{editBody: 12, sendResend: 5, editAnnot: 2, sendExplain: 1})

// serveClient is one client's seeded request sequence over its own copy
// of the project.
type serveClient struct {
	name  string
	http  *http.Client
	ed    *editor
	sched *schedule
}

func newServeClient(p *testgen.Program, seed int64, i int) *serveClient {
	return &serveClient{
		name:  "c" + itoa(i),
		http:  newClient(),
		ed:    newEditor(p, subSeed(seed, int64(10+2*i))),
		sched: &schedule{rng: rand.New(rand.NewSource(subSeed(seed, int64(11+2*i)))), block: serveMixedBlock},
	}
}

// next advances the client's state and returns the state and mode of its
// next request.
func (c *serveClient) next() (*testgen.Program, bool, error) {
	k := c.sched.next()
	if k == editBody || k == editAnnot {
		if _, err := c.ed.apply(k); err != nil {
			return nil, false, err
		}
	}
	return c.ed.cur, k == sendExplain, nil
}

// serveSetup starts the daemon runs times, each on a fresh cache, and
// times start-up through /healthz plus the first cold request. It returns
// the last daemon (still running) and its cache directory.
func (b *bench) serveSetup(p *testgen.Program, ref verdict, runs int) (*daemon, string, []float64, error) {
	body, err := json.Marshal(checkRequest(p, false))
	if err != nil {
		return nil, "", nil, err
	}
	var setup []float64
	var d *daemon
	var dir string
	for i := 0; i < runs; i++ {
		if d != nil {
			d.stop()
		}
		if dir, err = b.freshDir("serve", itoa(i)); err != nil {
			return nil, "", nil, err
		}
		start := time.Now()
		if d, err = b.startDaemon(dir); err != nil {
			return nil, "", nil, err
		}
		v, _, err := d.post(newClient(), "setup", body)
		if err == nil && v != ref {
			err = errors.New("first response differs from the cold reference")
		}
		if err != nil {
			d.stop()
			return nil, "", nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		// As after a CLI check: write back the cold request's cache files
		// so their writeback does not land in the next timed set-up.
		syscall.Sync()
	}
	return d, dir, setup, nil
}

// runServeMixed is the serve-mixed workload: two clients in closed loops,
// one connection each, post modules-mode /check requests from seeded
// sequences to a live golclint -serve.
func runServeMixed(b *bench) (*outcome, error) {
	p := newProgram(b.seed)
	refs := newModRefs()
	d, dir, setup, err := b.serveSetup(p, refs.verdict(p, false), setupRuns)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	type sent struct {
		p       *testgen.Program
		explain bool
		lat     time.Duration
		v       verdict
		err     error
	}
	var (
		done    atomic.Int64
		cacheMB atomic.Value
		wg      sync.WaitGroup
		firstEr error
		erOnce  sync.Once
	)
	logs := make([][]sent, checkJobs)
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < checkJobs; i++ {
		c := newServeClient(p, b.seed, i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Since(start) < b.dur {
				cur, explain, err := c.next()
				var body []byte
				if err == nil {
					body, err = json.Marshal(checkRequest(cur, explain))
				}
				if err != nil {
					erOnce.Do(func() { firstEr = err })
					return
				}
				v, lat, err := d.post(c.http, c.name, body)
				logs[i] = append(logs[i], sent{cur, explain, lat, v, err})
				if done.Add(1) == cacheCheckpoint {
					if n, err := d.storeMB(dir); err == nil {
						cacheMB.Store(n)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstEr != nil {
		return nil, firstEr
	}
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	if cacheMB.Load() == nil {
		n, err := d.storeMB(dir)
		if err != nil {
			return nil, err
		}
		cacheMB.Store(n)
	}

	var all []sent
	for _, l := range logs {
		all = append(all, l...)
	}
	want := make([]verdict, len(all))
	parallel(len(all), func(i int) { want[i] = refs.verdict(all[i].p, all[i].explain) })
	var t tally
	for i, s := range all {
		t.lat = append(t.lat, ms(s.lat))
		t.check(s.v, s.err, want[i], s.p)
	}
	o := t.outcome(setup, cacheMB.Load().(float64), float64(len(all))/wall.Seconds())
	o.metrics["cpu_ms_per_check"] = metric{ms(cpu1-cpu0) / float64(len(all)), "ms"}
	o.metrics["peak_rss_mb"] = metric{rss, "MB"}
	return o, nil
}
