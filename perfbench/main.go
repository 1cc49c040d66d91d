// Command perfbench is the repository benchmark: it runs one named
// workload, checks every output, and prints its metrics by name and unit.
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench --workload gene|basket|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 the run is traced and the object
// carries the per-layer metrics instead, and the spans are written under
// --out. The line before it is a report with the run's environment,
// workload parameters, sample counts, error and SLO-miss fractions, and
// the op-slot CPU times and wall-clock latencies under the names of the
// operations they measure (ista_job_cpu_ms, tx_p99_ms, ...).
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
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// env is what a workload run receives.
type env struct {
	w       workload
	seed    int64
	seconds float64
	scale   float64
	trace   bool
	dir     string // scratch directory for stores and traces
	log     io.Writer
}

// budget returns the wall-clock time of a measured phase that takes
// share of --seconds.
func (e *env) budget(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// outcome is a workload run's result.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// report holds everything else recorded with the result: workload
	// parameters, sample counts, tails and per-operation names.
	report map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, report: map[string]any{}}
}

// setOps records the median CPU time (ms) of each operation kind, and
// in the report the same under the names of the operations, with the
// median and tail of their wall-clock latencies and the sample counts.
func (o *outcome) setOps(e *env, cpu, wall [3]samples) {
	named := map[string]any{}
	for k := range cpu {
		o.metrics[fmt.Sprintf("op%d_cpu_ms", k+1)] = cpu[k].median()
		op := e.w.ops[k]
		named[op+"_cpu_ms"] = cpu[k].median()
		named[op+"_cpu_samples"] = len(cpu[k])
		named[op+"_p50_ms"] = wall[k].median()
		named[fmt.Sprintf("%s_p%g_ms", op, 100*e.w.tails[k])] = wall[k].pct(e.w.tails[k])
		named[op+"_samples"] = len(wall[k])
	}
	o.report["ops"] = named
}

// check counts one checked operation, failing it when err is non-nil.
func (o *outcome) check(log io.Writer, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.failed <= 10 {
			fmt.Fprintf(log, "perfbench: check failed: %v\n", err)
		}
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: gene, basket or serve")
	seed := fl.Int64("seed", -1, "run seed: relabels the items and shuffles the transactions (-1 = the workload's default)")
	seconds := fl.Float64("seconds", 10, "measured time in seconds")
	trace := fl.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	scale := fl.Float64("scale", 1, "input size factor (below 1 for quick smoke runs)")
	out := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for stores and trace files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload gene|basket|serve, --seconds > 0, --scale > 0, --trace 0|1")
		return 2
	}
	e := &env{w: w, seed: w.seed, seconds: *seconds, scale: *scale, trace: *trace == 1, log: stderr}
	if *seed >= 0 {
		e.seed = *seed
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, w.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e.dir = dir
	defer os.RemoveAll(dir)

	o, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	want := endToEnd
	if e.trace {
		want = perLayer
	}
	metrics := make(map[string]any, len(want))
	for _, m := range want {
		v, ok := o.metrics[m.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s not measured\n", w.name, m.Name)
			return 1
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}

	o.report["workload"] = w.name
	o.report["seed"] = e.seed
	o.report["default_seed"] = w.seed
	o.report["held_out_seed"] = w.heldOut
	o.report["seconds"] = e.seconds
	o.report["scale"] = e.scale
	o.report["trace"] = e.trace
	o.report["env"] = environment()
	o.report["error_frac"] = float64(o.failed) / float64(max(1, o.attempted))
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": o.report}); err != nil {
		return 1
	}
	if err := enc.Encode(map[string]any{
		"correct":   o.failed == 0,
		"attempted": max(1, o.attempted),
		"failed":    o.failed,
		"metrics":   metrics,
	}); err != nil {
		return 1
	}
	return 0
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     rev,
		"source":     sourceDigest("."),
	}
}

// sourceDigest hashes the module's Go sources and go.mod files under
// root, identifying the measured code when no version control metadata
// is available.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
