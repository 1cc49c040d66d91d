package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s defined twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is invalid or reused", w.name)
		}
		seen[w.name] = true
	}
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metric
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := b.Workloads[i]
		if got.Name != w.name {
			t.Errorf("workload %d is %q, want %q", i, got.Name, w.name)
		}
		if len(got.Why) > 200 || strings.ContainsAny(got.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.name, len(got.Why))
		}
		// The why line records the default and the held-out seed.
		if seeds := fmt.Sprintf("seed %d, held-out %d", w.seed, w.heldOut); !strings.Contains(got.Why, seeds) {
			t.Errorf("workload %s: why %q does not record %q", w.name, got.Why, seeds)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.metric != m {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, got.metric, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, got.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i] != m {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, b.PerLayer[i], m)
		}
	}
	// The serve workload's latency limits are recorded in its why line.
	p := serveConfig(1)
	limits := fmt.Sprintf("SLO p99/p99/p95 <= %g/%g/%g ms", p.Limits[0], p.Limits[1], p.Limits[2])
	for _, w := range b.Workloads {
		if w.Name == "serve" && !strings.Contains(w.Why, limits) {
			t.Errorf("serve why %q does not record %q", w.Why, limits)
		}
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestTinyRuns runs every workload at a tiny scale, untraced and traced,
// and checks that each prints every metric with its unit and that no
// operation failed.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.5", "--trace", trace,
					"--scale", "0.05", "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				var r result
				if err := dec.Decode(&r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d: %s", r.Correct, r.Failed, r.Attempted, stderr.String())
				}
				var report struct {
					Report struct {
						ErrorFrac *float64 `json:"error_frac"`
					} `json:"report"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &report); err != nil || report.Report.ErrorFrac == nil || *report.Report.ErrorFrac != 0 {
					t.Errorf("report line %q: want error_frac 0", lines[len(lines)-2])
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok || got.Value == nil || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v, want a value in %s", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}

func TestBadArguments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

func TestCovered(t *testing.T) {
	tr := &tracer{}
	root := tr.begin("root", 0, 1)
	tr.end(root)
	p := tr.get(root)
	p.End = p.Start.Add(100)
	kids := []span{
		{Start: p.Start.Add(10), End: p.Start.Add(30)},
		{Start: p.Start.Add(20), End: p.Start.Add(40)},
		{Start: p.Start.Add(90), End: p.Start.Add(150)},
	}
	if got := covered(p, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}
