// Command perfbench is the placement system's end-to-end and per-layer
// benchmark. It starts the real service handler (internal/service, with
// cmd/placed's defaults) on a loopback listener inside its own process,
// drives one named workload at it from closed-loop clients, checks every
// answer from outside, and prints the metrics. See README.md.
//
//	go run . --workload offline-table1 --seed 1 --seconds 20 --trace 0
//	go run . --list
//	go run . compare -bench ../BENCHMARK.json BASE_DIR CHANGE_DIR
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// runLimit stops a run that would overrun the 180 s a run may take.
const runLimit = 175 * time.Second

// traffic is one named workload: a seeded traffic mix.
type traffic interface {
	// prepare builds the seeded inputs and brings the server to its
	// starting state (warm cache, open sessions). setup_s times it
	// together with starting the server.
	prepare(e *env) error
	// load drives the closed-loop clients for the run length.
	load(e *env, seconds time.Duration, tr *tracer) (*phase, error)
	// replay runs a traced phase's requests in-process through the
	// layers' public functions.
	replay(ph *phase, tr *tracer, lay *layers) error
}

// workloads names the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"offline-table1", "service-mixed", "sessions-churn"}

func newWorkload(name string, seed int64) (traffic, error) {
	switch name {
	case "offline-table1":
		return &offline{seed: seed}, nil
	case "service-mixed":
		return &mixed{seed: seed}, nil
	case "sessions-churn":
		return &sessions{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloads, ", "))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o runOpts
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "run length in seconds (BENCHMARK.json run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "1 adds a traced phase and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for result and span files, relative to the working directory")
	list := flag.Bool("list", false, "print every metric with its unit and meaning, then exit")
	flag.Parse()
	if *list {
		printCatalog()
		return
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

type runOpts struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
}

// meta records what a result was measured on.
type meta struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      int     `json:"seconds"`
	MeasuredS    float64 `json:"measured_s"`
	Trace        int     `json:"trace"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPU          string  `json:"cpu"`
	GoVersion    string  `json:"go"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	Started      string  `json:"started"`
}

// result is the full record of one run, written to the result file.
type result struct {
	Meta      meta             `json:"meta"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	ByKind    map[string]value `json:"latency_by_kind"`
	// MaxRSSMB is the kernel's peak resident set of the whole run,
	// set-ups and traced phase included (getrusage).
	MaxRSSMB   float64          `json:"max_rss_mb"`
	Traced     map[string]value `json:"traced_end_to_end,omitempty"`
	PerLayer   map[string]value `json:"per_layer,omitempty"`
	Violations []string         `json:"violations,omitempty"`
	Notes      []string         `json:"notes,omitempty"`
}

func run(o runOpts) (*result, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	seconds := time.Duration(o.seconds) * time.Second
	res := &result{Meta: collectMeta(o)}

	var setups []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		if e, err = setUp(w); err != nil {
			return nil, err
		}
		setups = append(setups, e.setupS)
	}
	base, err := measure(w, e, seconds, nil)
	e.close()
	if err != nil {
		return nil, err
	}
	res.Meta.MeasuredS = base.elapsed.Seconds()
	res.EndToEnd = base.endToEnd(setups)
	res.ByKind = base.byKind()
	phases := []*phase{base}

	var lay *layers
	if o.trace == 1 {
		if e, err = setUp(w); err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := measure(w, e, seconds, tr)
		e.close()
		if err != nil {
			return nil, err
		}
		phases = append(phases, traced)
		res.Traced = traced.endToEnd(setups)
		for k, v := range traced.byKind() {
			res.ByKind["traced."+k] = v
		}
		lay = newLayers()
		if err := w.replay(traced, tr, lay); err != nil {
			return nil, err
		}
		res.PerLayer = perLayerValues(lay, base, traced)
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(o.out, fileStem(o)+"-spans.jsonl")); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	for _, ph := range phases {
		res.Attempted += len(ph.ops)
		res.Failed += ph.failed()
		res.Violations = append(res.Violations, ph.violations...)
		res.Notes = append(res.Notes, ph.notes...)
	}
	if lay != nil {
		res.Violations = append(res.Violations, lay.pinFailures...)
		if lay.divergences > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%d replayed session decisions differ from the server's", lay.divergences))
		}
	}
	res.Correct = len(res.Violations) == 0 && res.Attempted > 0
	res.MaxRSSMB = maxRSSMB()
	return res, report(o, res)
}

// setUp starts a server and prepares the workload on it, timing both.
func setUp(w traffic) (*env, error) {
	runtime.GC()
	t0 := time.Now()
	e, err := startEnv()
	if err != nil {
		return nil, err
	}
	if err := w.prepare(e); err != nil {
		e.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	e.setupS = time.Since(t0).Seconds()
	return e, nil
}

// measure runs one load phase between two /v1/stats reads.
func measure(w traffic, e *env, seconds time.Duration, tr *tracer) (*phase, error) {
	runtime.GC()
	before, err := e.stats()
	if err != nil {
		return nil, err
	}
	mem := startMemSampler()
	ph, err := w.load(e, seconds, tr)
	samples := mem.finish()
	if err != nil {
		return nil, err
	}
	ph.before = before
	ph.mem = samples
	if ph.after, err = e.stats(); err != nil {
		return nil, err
	}
	return ph, nil
}

func fileStem(o runOpts) string {
	return fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, o.trace)
}

// report prints the metric table and the metadata, writes the result
// file, and prints the one-line JSON result last.
func report(o runOpts, res *result) error {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	m, err := json.Marshal(res.Meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "meta %s\n", m)
	printTable(out, "end-to-end (untraced phase)", endToEnd, res.EndToEnd)
	kinds := make([]string, 0, len(res.ByKind))
	for k := range res.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintln(out, "# latency by operation kind (untraced phase)")
	for _, k := range kinds {
		fmt.Fprintf(out, "%-34s %14.4f %-6s n=%d\n", k, res.ByKind[k].V, "ms", res.ByKind[k].N)
	}
	if res.PerLayer != nil {
		printTable(out, "end-to-end (traced phase)", endToEnd, res.Traced)
		printTable(out, "per-layer (traced phase, replayed in-process)", perLayer, res.PerLayer)
	}
	fmt.Fprintf(out, "%-34s %14.4f %-6s (getrusage, whole process)\n", "max_rss_mb", res.MaxRSSMB, "MB")
	for _, v := range res.Violations {
		fmt.Fprintf(out, "VIOLATION %s\n", v)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(out, "note %s\n", strings.TrimSpace(n))
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, fileStem(o)+".json"), full, 0o644); err != nil {
		return err
	}

	defs, vals := endToEnd, res.EndToEnd
	if res.PerLayer != nil {
		defs, vals = perLayer, res.PerLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricOut{}}
	for _, d := range defs {
		line.Metrics[d.name] = metricOut{vals[d.name].V, d.unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", last)
	return nil
}

func printTable(out *bufio.Writer, title string, defs []metricDef, vals map[string]value) {
	fmt.Fprintf(out, "# %s\n", title)
	for _, d := range defs {
		v := vals[d.name]
		fmt.Fprintf(out, "%-34s %14.4f %-6s n=%d\n", d.name, v.V, d.unit, v.N)
	}
}

func printCatalog() {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintln(out, "# end-to-end (--trace 0)")
	for _, d := range endToEnd {
		fmt.Fprintf(out, "%-34s %-6s %-6s %s\n", d.name, d.unit, d.better, d.doc)
	}
	fmt.Fprintln(out, "# per-layer (--trace 1)")
	for _, d := range perLayer {
		fmt.Fprintf(out, "%-34s %-6s %-6s %s\n", d.name, d.unit, d.better, d.doc)
	}
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func collectMeta(o runOpts) meta {
	m := meta{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: "unknown",
		SourceDigest: sourceDigest("."),
		Started:      time.Now().UTC().Format(time.RFC3339),
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		m.Commit = c
	}
	return m
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the Go sources under root, standing in for
// the commit where the checkout is not a git repository.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
