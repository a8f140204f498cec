// Command perfbench is the repository's end-to-end benchmark: one command
// that replays a seeded interaction workload against the sheetserver
// binary (or, for the SQL twin, in-process), checks every output it can,
// and prints each metric by name with its unit. With -trace 1 it instead
// replays the same op streams in-process and reports per-layer metrics
// from spans around each layer call plus obs counter deltas.
//
// Run it through run.sh from the repository root, which builds this
// command and cmd/sheetserver into .bench_build first:
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 10 --trace 0
//
// README.md in this directory explains the workloads and the metric map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	server   string // sheetserver binary
	root     string // repository checkout
	work     string // scratch directory for this run (logs, data dirs)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line: the contract every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempts (requests and correctness checks) and failures
// (non-2xx responses and failed checks). Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
}

// check records one attempt; a non-nil err counts as a failure.
func (t *tally) check(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

// report is what a workload hands back: the metrics for the final line
// plus informational figures printed above it.
type report struct {
	metrics    map[string]metric
	info       map[string]metric
	provenance map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, info: map[string]metric{}, provenance: map[string]string{}}
}

var workloads = map[string]struct {
	untraced func(*config, *tally) (*report, error)
	traced   func(*config, *tally) (*report, error)
}{
	"study":    {runStudy, traceStudy},
	"modify":   {runModify, traceModify},
	"sql-twin": {runSQLTwin, traceSQLTwin},
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: study, modify or sql-twin")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the op stream")
	flag.IntVar(&seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced in-process run reporting per-layer metrics")
	flag.StringVar(&cfg.server, "server", "", "sheetserver binary")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout")
	flag.Parse()
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.root = root
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if !cfg.trace {
		if err := pinToOneCPU(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if err := run(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// pinToOneCPU re-executes the command under taskset on the first CPU it
// may use, unless it is pinned already; the servers it starts inherit the
// pin. On a shared host the vCPUs are lent out one by one, and a step is a
// ping-pong between client and server: spread over two vCPUs, every
// request and reply waits for the other vCPU to be woken and scheduled,
// and every hypervisor steal on either slows the step. On one vCPU the
// five-seed spread of modify's step p50 fell from about 0.28 to 0.08. It
// also means no step runs a kernel in parallel; the traced run, which is
// not pinned, still reports relation.parallel_ratio. Without taskset the
// run goes on unpinned, as the cpus_allowed provenance shows.
func pinToOneCPU() error {
	allowed := cpusAllowed()
	first, _, multi := strings.Cut(strings.ReplaceAll(allowed, ",", "-"), "-")
	taskset, err := exec.LookPath("taskset")
	if !multi || first == "" || err != nil {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := append([]string{"taskset", "-c", first, exe}, os.Args[1:]...)
	return syscall.Exec(taskset, args, os.Environ())
}

// cpusAllowed returns the list of CPUs the process may run on, as
// /proc/self/status gives it ("0-1", "0,2", "3").
func cpusAllowed() string {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func run(cfg *config) error {
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (study, modify, sql-twin)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if !cfg.trace && cfg.workload != "sql-twin" {
		if _, err := os.Stat(cfg.server); err != nil {
			return fmt.Errorf("sheetserver binary: %w", err)
		}
	}
	build := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.work = work

	var t tally
	fn := w.untraced
	if cfg.trace {
		fn = w.traced
	}
	steal := cpuSteal()
	rep, err := fn(cfg, &t)
	if err != nil {
		return err
	}
	rep.info["cpu_steal_s"] = metric{cpuSteal() - steal, "s"}
	want := endToEnd
	if cfg.trace {
		want = layerUnits()
	}
	if err := sameMetrics(rep.metrics, want); err != nil {
		return err
	}
	for k, v := range provenance(cfg) {
		rep.provenance[k] = v
	}
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   rep.metrics,
	}
	if err := writeReport(cfg, rep, res); err != nil {
		return err
	}
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errFailedChecks
	}
	return nil
}

// errFailedChecks makes a run whose correctness checks failed exit non-zero
// after it has printed its result.
var errFailedChecks = errors.New("correctness checks failed")

// writeReport prints the provenance and every figure as "name value unit"
// lines, and keeps the same record under .bench_build/results.
func writeReport(cfg *config, rep *report, res result) error {
	prov, err := json.Marshal(rep.provenance)
	if err != nil {
		return err
	}
	fmt.Println("provenance", string(prov))
	for _, part := range []map[string]metric{rep.metrics, rep.info} {
		names := make([]string, 0, len(part))
		for n := range part {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-40s %14.6g %s\n", n, part[n].Value, part[n].Unit)
		}
	}
	fmt.Printf("%-40s %14.6g %s\n", "failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	dir := filepath.Join(cfg.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(map[string]any{
		"provenance": rep.provenance, "result": res, "info": rep.info,
	}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), doc, 0o644)
}

// provenance records where a result came from. The checkout the benchmark
// runs in may not be a git repository, so the source digest stands in for
// the commit when git cannot name it.
func provenance(cfg *config) map[string]string {
	commit := "unknown"
	git := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD")
	// Keep git from searching above the checkout for a repository.
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cfg.root))
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"commit":        commit,
		"source_sha256": sourceDigest(cfg.root),
		"go_version":    runtime.Version(),
		"gomaxprocs":    fmt.Sprint(runtime.GOMAXPROCS(0)),
		"server_procs":  fmt.Sprint(serverProcs),
		"cpus_allowed":  cpusAllowed(),
		"nproc":         fmt.Sprint(runtime.NumCPU()),
		"cpu_model":     cpuModel(),
		"seed":          fmt.Sprint(cfg.seed),
		"seconds":       fmt.Sprint(cfg.seconds.Seconds()),
		"workload":      cfg.workload,
		"traced":        fmt.Sprint(cfg.trace),
	}
}

// sourceDigest hashes go.mod and every .go file under root, skipping
// dot-directories (build output).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuSteal returns the CPU time, summed over CPUs, that the hypervisor
// has given to other guests since boot. On a shared virtual machine it
// tells a run slowed by its neighbours from one slowed by the program.
func cpuSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	// cpu user nice system idle iowait irq softirq steal ..., in ticks of
	// 1/100 s.
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// endToEnd lists the metrics every untraced run reports, with their units.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"step_p50_ms", "ms"},
	{"step_p95_ms", "ms"},
	{"steps_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// sameMetrics requires got to hold exactly the metrics in want, with their
// units.
func sameMetrics(got map[string]metric, want [][2]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("run reports %d metrics, want %d", len(got), len(want))
	}
	for _, w := range want {
		if m, ok := got[w[0]]; !ok || m.Unit != w[1] {
			return fmt.Errorf("run does not report %s in %s", w[0], w[1])
		}
	}
	return nil
}

// stepMetrics turns the step latencies of a run's measured time into the
// step metrics shared by every workload.
func stepMetrics(rep *report, lat []float64, elapsed time.Duration) {
	rep.metrics["step_p50_ms"] = metric{median(lat), "ms"}
	rep.metrics["step_p95_ms"] = metric{percentile(lat, 0.95), "ms"}
	rep.metrics["steps_per_s"] = metric{float64(len(lat)) / elapsed.Seconds(), "1/s"}
	rep.info["steps"] = metric{float64(len(lat)), "count"}
}
