package main

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	fim "repro"
	"repro/internal/engine"
	"repro/internal/prep"
	"repro/internal/tidset"
	"repro/internal/txdb"
)

// traceBatch is the traced run of a batch workload: rounds of untraced
// and traced jobs alternate until the time is used, the per-layer
// metrics come from the traced jobs, and trace.overhead_frac compares
// the CPU time of the two kinds of round.
func traceBatch(e *env, o *outcome, spec batchSpec, data []byte) error {
	for _, m := range perLayer {
		o.metrics[m.Name] = 0
	}
	tr := &tracer{}
	var plain, traced samples
	var res [3][]jobResult
	n := rounds(e, func(r int) {
		var cpu time.Duration
		for _, j := range runRound(e, o, spec, data, r, nil, nil) {
			cpu += j.cpu
		}
		plain = append(plain, cpu.Seconds())
		cpu = 0
		for k, j := range runRound(e, o, spec, data, r, tr, nil) {
			cpu += j.cpu
			res[k] = append(res[k], j)
		}
		traced = append(traced, cpu.Seconds())
	})
	o.metrics["trace.overhead_frac"] = traced.median()/plain.median() - 1
	o.report["samples"] = map[string]int{"rounds": n}
	aggregateJobs(o, spec, res, tr)

	db, err := fim.Read(bytes.NewReader(data))
	if err != nil {
		return err
	}
	prepProbe(o, []txdb.Source{db}, spec.minsup, spec.jobs[0].algo)
	pairReplay(o, db, spec.minsup)
	return writeTrace(e, tr)
}

// aggregateJobs turns traced job results, indexed like spec.jobs, into
// the per-layer metrics of the layers those jobs exercise.
func aggregateJobs(o *outcome, spec batchSpec, res [3][]jobResult, tr *tracer) {
	var decode, decodeAllocs, sorts, encodes, outMB samples
	for k, j := range spec.jobs {
		if len(res[k]) == 0 {
			continue
		}
		var mine, gcCPU, allocs, build, report, ops, nodes, merge samples
		var isects, stops, switches samples
		for _, r := range res[k] {
			decode = append(decode, r.decode.Seconds())
			decodeAllocs = append(decodeAllocs, r.decodeAllocs)
			sorts = append(sorts, r.sort.Seconds())
			encodes = append(encodes, r.encode.Seconds())
			outMB = append(outMB, float64(len(r.out))/1e6)
			mine = append(mine, r.stats.MineTime.Seconds())
			gcCPU = append(gcCPU, r.mineGCCPU)
			allocs = append(allocs, r.mineAllocs)
			build = append(build, r.build.Seconds())
			report = append(report, r.report.Seconds())
			ops = append(ops, float64(r.stats.Ops))
			nodes = append(nodes, float64(r.stats.NodesPeak))
			isects = append(isects, float64(r.stats.Isects))
			stops = append(stops, float64(r.stats.EarlyStops))
			switches = append(switches, float64(r.stats.RepSwitches))
		}
		for _, s := range tr.spansUnder("merge", "job:"+jobName(j)) {
			merge = append(merge, s.dur().Seconds())
		}
		m := o.metrics
		switch {
		case j.algo == fim.IsTa:
			m["core.mine_s"], m["core.build_s"], m["core.report_s"] = mine.median(), build.median(), report.median()
			m["core.isect_passes"], m["core.nodes_peak"] = ops.median(), nodes.median()
			m["core.allocs"], m["core.gc_cpu_s"] = allocs.median(), gcCPU.median()
		case j.algo == fim.CarpenterTable && j.workers > 1:
			m["parallel.mine_s"], m["parallel.merge_s"] = mine.median(), merge.median()
		case j.algo == fim.CarpenterTable:
			m["carpenter.mine_s"], m["carpenter.ops"] = mine.median(), ops.median()
			m["carpenter.nodes_peak"], m["carpenter.gc_cpu_s"] = nodes.median(), gcCPU.median()
		case j.algo == fim.LCM:
			m["lcm.mine_s"], m["lcm.ops"] = mine.median(), ops.median()
		case j.algo == fim.EclatClosed:
			m["eclat.mine_s"] = mine.median()
			m["tidset.isects"], m["tidset.early_stops"] = isects.median(), stops.median()
			m["tidset.rep_switches"] = switches.median()
			if isects.median() > 0 {
				m["tidset.early_stop_frac"] = stops.median() / isects.median()
			}
		case j.algo == fim.FPClose:
			m["fpgrowth.mine_s"] = mine.median()
		}
	}
	if p := o.metrics["parallel.mine_s"]; p > 0 {
		o.metrics["parallel.speedup"] = o.metrics["carpenter.mine_s"] / p
	}
	o.metrics["dataset.decode_s"], o.metrics["dataset.decode_allocs"] = decode.median(), decodeAllocs.median()
	o.metrics["result.sort_s"], o.metrics["result.encode_s"] = sorts.median(), encodes.median()
	o.metrics["result.out_mb"] = outMB.median()

}

func writeTrace(e *env, tr *tracer) error {
	path := filepath.Join(filepath.Dir(e.dir), fmt.Sprintf("trace-%s-seed%d.jsonl", filepath.Base(e.dir), e.seed))
	return tr.write(path)
}

// prepProbe calls prep.Prepare directly, with the preprocessing the
// algorithm's engine registration declares, on each source.
func prepProbe(o *outcome, srcs []txdb.Source, minsup int, algo fim.Algorithm) {
	reg, ok := engine.Lookup(string(algo))
	if !ok {
		return
	}
	var times, allocs, txKept, itemsKept samples
	for _, src := range srcs {
		for range 3 {
			quiesce()
			rt0 := readRT()
			t0 := time.Now()
			pre := prep.Prepare(src, minsup, reg.Prep)
			d := time.Since(t0)
			rt1 := readRT()
			times = append(times, d.Seconds())
			allocs = append(allocs, rt1.sub(rt0).allocs)
			txKept = append(txKept, float64(pre.DB.NumTx())/float64(max(1, src.NumTx())))
			itemsKept = append(itemsKept, float64(pre.DB.NumItems())/float64(max(1, src.NumItems())))
		}
	}
	o.metrics["prep.prep_s"], o.metrics["prep.allocs"] = times.median(), allocs.median()
	o.metrics["prep.tx_kept_frac"], o.metrics["prep.items_kept_frac"] = txKept.median(), itemsKept.median()
}

// maxReplayPairs bounds the kernel replay on very wide inputs.
const maxReplayPairs = 2_000_000

// pairReplay intersects the tid sets of every pair of frequent items of
// src with tidset.Kernel.Intersect, minsup as the bound: the base-set
// intersections an Eclat search starts from. The first pass fills the
// scratch arena; the second is timed.
func pairReplay(o *outcome, src txdb.Source, minsup int) {
	reg, ok := engine.Lookup(string(fim.EclatClosed))
	if !ok {
		return
	}
	pre := prep.Prepare(src, minsup, reg.Prep)
	sets := pre.DB.KernelSets()
	k := tidset.NewKernel(pre.DB.KernelUniverse())
	ar := k.Level(0)
	var pairs int
	var d time.Duration
	var rt rtStats
	for pass := 0; pass < 2; pass++ {
		quiesce()
		pairs = 0
		rt0 := readRT()
		t0 := time.Now()
	outer:
		for i := range sets {
			for j := i + 1; j < len(sets); j++ {
				if pairs == maxReplayPairs {
					break outer
				}
				k.Intersect(ar, &sets[i], &sets[j], minsup)
				ar.Reset()
				pairs++
			}
		}
		d = time.Since(t0)
		rt = readRT().sub(rt0)
	}
	if pairs > 0 {
		o.metrics["tidset.pair_ns"] = float64(d.Nanoseconds()) / float64(pairs)
		o.metrics["tidset.pair_allocs"] = rt.allocs / float64(pairs)
	}
	o.report["replay_pairs"] = pairs
}

// patternCount counts the patterns of an encoded result (one per line).
func patternCount(out []byte) int { return bytes.Count(out, []byte{'\n'}) }

// auditSample re-derives, from the input, the support and closedness of
// an evenly spaced sample of the reported patterns.
func auditSample(out, data []byte, minsup int) error {
	db, err := fim.Read(bytes.NewReader(data))
	if err != nil {
		return err
	}
	n := patternCount(out)
	step := max(1, n/25)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for i := 0; sc.Scan(); i++ {
		if i%step != 0 {
			continue
		}
		items, support, err := parsePattern(sc.Text())
		if err != nil {
			return err
		}
		if got := fim.Support(db, items); got != support || support < minsup {
			return fmt.Errorf("pattern %v reported with support %d, recount gives %d (minsup %d)", items, support, got, minsup)
		}
		if !fim.IsClosed(db, items) {
			return fmt.Errorf("pattern %v is not closed", items)
		}
	}
	return sc.Err()
}

// parsePattern parses one output line, "i j k (support)".
func parsePattern(line string) (fim.ItemSet, int, error) {
	open := strings.LastIndexByte(line, '(')
	if open < 0 || !strings.HasSuffix(line, ")") {
		return nil, 0, fmt.Errorf("malformed output line %q", line)
	}
	support, err := strconv.Atoi(line[open+1 : len(line)-1])
	if err != nil {
		return nil, 0, fmt.Errorf("malformed output line %q", line)
	}
	var items []int
	for _, f := range strings.Fields(line[:open]) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, 0, fmt.Errorf("malformed output line %q", line)
		}
		items = append(items, v)
	}
	return fim.NewItemSet(items...), support, nil
}
