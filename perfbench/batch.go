package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	fim "repro"
	"repro/internal/gendata"
	"repro/internal/txdb"
)

// setupReps is how often a batch run repeats its set-up; setup_s is the
// median.
const setupReps = 9

// batchJob is one operation kind of a batch workload: a whole mining job
// from FIMI bytes in memory to sorted output bytes, along the path the
// fim command takes (fim.Read → fim.Mine → ResultSet sort and write).
type batchJob struct {
	algo    fim.Algorithm
	workers int
}

// batchSpec describes a batch workload.
type batchSpec struct {
	gen    func() txdb.Source
	minsup int
	jobs   [3]batchJob
	// want is the known closed-set count of the input at full scale; 0
	// skips the count check.
	want   int
	params map[string]any
}

// runGene is the paper's regime: few transactions, very many items.
func runGene(e *env) (*outcome, error) {
	scale := 0.15 * e.scale
	// Transactions grow with the square root of the Yeast scale.
	minsup := max(2, int(math.Round(14*math.Sqrt(e.scale))))
	spec := batchSpec{
		gen:    func() txdb.Source { return gendata.Yeast(scale, e.w.dataSeed) },
		minsup: minsup,
		jobs:   [3]batchJob{{fim.IsTa, 0}, {fim.CarpenterTable, 0}, {fim.CarpenterTable, 2}},
		params: map[string]any{"generator": "gendata.Yeast", "yeast_scale": scale, "minsup": minsup},
	}
	if e.scale == 1 {
		spec.want = 7123
	}
	return runBatch(e, spec)
}

// runBasket is the many-transactions regime of the enumeration miners.
func runBasket(e *env) (*outcome, error) {
	cfg := gendata.QuestConfig{
		Items: 120, Transactions: max(200, int(20000*e.scale)), AvgLen: 10,
		Patterns: 30, AvgPatternLen: 4, Seed: e.w.dataSeed,
	}
	minsup := max(2, int(math.Round(100*e.scale)))
	spec := batchSpec{
		gen:    func() txdb.Source { return gendata.Quest(cfg) },
		minsup: minsup,
		jobs:   [3]batchJob{{fim.LCM, 0}, {fim.EclatClosed, 0}, {fim.FPClose, 0}},
		params: map[string]any{"generator": "gendata.Quest", "quest": cfg, "minsup": minsup},
	}
	if e.scale == 1 {
		spec.want = 10809
	}
	return runBatch(e, spec)
}

// relabeled returns the transactions of src as rows of item codes, each
// code renamed to perm[code] and every row sorted.
func relabeled(src txdb.Source, perm []int) [][]int {
	rows := make([][]int, src.NumTx())
	for k := range rows {
		tx := src.Tx(k)
		rows[k] = make([]int, len(tx))
		for j, it := range tx {
			rows[k][j] = perm[it]
		}
		sort.Ints(rows[k])
	}
	return rows
}

// shuffled returns rows in a random order drawn from rng.
func shuffled(rows [][]int, rng *rand.Rand) [][]int {
	out := make([][]int, len(rows))
	for i, k := range rng.Perm(len(rows)) {
		out[i] = rows[k]
	}
	return out
}

// seededRows is the run's input drawn from the base data src: its items
// relabelled by a permutation and its transactions shuffled, both drawn
// from seed. Every seed poses the same mining problem up to item names,
// so the closed-set count stays known, while the input bytes, the
// item-code tie-breaks of prep's orders, and with them the search order
// and the mining work, change with the seed.
func seededRows(src txdb.Source, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	return shuffled(relabeled(src, rng.Perm(src.NumItems())), rng)
}

func encodeFIMI(rows [][]int) ([]byte, error) {
	var b bytes.Buffer
	err := fim.Write(&b, fim.NewDatabase(rows))
	return b.Bytes(), err
}

// setUp builds the workload input reps times, each after a collection,
// and returns the last build with the CPU and wall-clock times of each
// build in seconds.
func setUp[T any](reps int, build func() (T, error)) (v T, cpu, wall samples, err error) {
	for range reps {
		quiesce()
		t0, c0 := time.Now(), cpuTime()
		if v, err = build(); err != nil {
			return v, nil, nil, err
		}
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
	}
	return v, cpu, wall, nil
}

// rounds calls round(r) until the measured time is used up, after at
// least one round.
func rounds(e *env, round func(r int)) int {
	start := time.Now()
	r := 0
	for ; r == 0 || time.Since(start)+time.Since(start)/time.Duration(r) <= e.budget(1); r++ {
		round(r)
	}
	return r
}

func runBatch(e *env, spec batchSpec) (*outcome, error) {
	o := newOutcome()
	heap := startHeapSampler()
	var shape [2]int
	data, setup, setupWall, err := setUp(setupReps, func() ([]byte, error) {
		base := spec.gen()
		shape = [2]int{base.NumTx(), base.NumItems()}
		return encodeFIMI(seededRows(base, e.seed))
	})
	if err != nil {
		heap.stopMB()
		return nil, err
	}
	o.metrics["setup_s"] = setup.median()
	o.report["setup_wall_s"] = setupWall.median()
	o.report["params"] = spec.params
	o.report["transactions_items"] = shape
	o.report["input_bytes"] = len(data)

	if e.trace {
		heap.stopMB()
		return o, traceBatch(e, o, spec, data)
	}

	var cpu, wall, peak [3]samples
	var busy time.Duration
	n := rounds(e, func(r int) {
		for k, res := range runRound(e, o, spec, data, r, nil, heap) {
			cpu[k] = append(cpu[k], ms(res.cpu))
			wall[k] = append(wall[k], ms(res.wall))
			peak[k] = append(peak[k], res.heapMB)
			busy += res.cycle
		}
	})
	o.report["peak_heap_max_mb"] = heap.stopMB()
	o.metrics["peak_heap_mb"] = typicalPeak(peak)
	o.setOps(e, cpu, wall)
	// Jobs completed per second of the rounds, the collection before
	// each job included.
	o.report["capacity_rps"] = float64(len(spec.jobs)*n) / busy.Seconds()
	o.report["samples"] = map[string]int{"rounds": n, "setup": len(setup)}
	return o, nil
}

// runRound runs every job of spec once on data, each after a collection
// and, when heap is non-nil, with its peak live heap, and checks the
// outputs:
// the first job's output is checked against the known pattern count
// and, in round 0, by recounting a sample of its patterns; every later
// job must be byte-identical to it.
func runRound(e *env, o *outcome, spec batchSpec, data []byte, r int, tr *tracer, heap *heapSampler) [3]jobResult {
	var res [3]jobResult
	for k, j := range spec.jobs {
		t0 := time.Now()
		quiesce()
		if heap != nil {
			heap.begin()
		}
		var err error
		res[k], err = runJob(data, spec.minsup, j, tr)
		if heap != nil {
			res[k].heapMB = heap.end()
		}
		res[k].cycle = time.Since(t0)
		switch {
		case err != nil:
			err = fmt.Errorf("%s: %w", jobName(j), err)
		case k > 0:
			if !bytes.Equal(res[k].out, res[0].out) {
				err = fmt.Errorf("%s output differs from %s output (%d vs %d bytes)",
					jobName(j), jobName(spec.jobs[0]), len(res[k].out), len(res[0].out))
			}
		case res[0].count == 0 || (spec.want != 0 && res[0].count != spec.want):
			err = fmt.Errorf("%s found %d closed sets, want %d", jobName(j), res[0].count, spec.want)
		case r == 0:
			err = auditSample(res[0].out, data, spec.minsup)
		}
		o.check(e.log, err)
	}
	o.report["patterns"] = res[0].count
	return res
}

// jobResult is one batch job's output and, in traced runs, its layer
// figures.
type jobResult struct {
	out   []byte
	count int
	// wall and cpu are the job's wall-clock and CPU time; cycle adds
	// the collection before it to wall.
	wall, cpu, cycle time.Duration
	heapMB           float64

	stats                    fim.MiningStats
	decode, sort, encode     time.Duration
	build, report            time.Duration
	decodeAllocs, mineAllocs float64
	mineGCCPU                float64
}

// runJob runs one job. With a tracer it also records a span around every
// public call, reads the runtime counters around them, and collects the
// engine's statistics and trace stream; with a nil tracer it runs the
// bare path.
func runJob(data []byte, minsup int, j batchJob, tr *tracer) (jobResult, error) {
	var r jobResult
	opts := fim.Options{MinSupport: minsup, Algorithm: j.algo, Parallelism: j.workers}
	req := tr.newReq()
	t0, c0 := time.Now(), cpuTime()
	job := tr.begin("job:"+jobName(j), 0, req)
	defer tr.end(job)

	var rt0 rtStats
	if tr != nil {
		rt0 = readRT()
	}
	sp := tr.begin("dataset.decode", job, req)
	db, err := fim.Read(bytes.NewReader(data))
	r.decode = tr.end(sp)
	if tr != nil {
		r.decodeAllocs = readRT().sub(rt0).allocs
	}
	if err != nil {
		return r, err
	}

	var set fim.ResultSet
	var rep fim.Reporter = set.Collect()
	var first time.Time
	var trace bytes.Buffer
	if tr != nil {
		var once sync.Once
		collect := rep
		rep = fim.ReporterFunc(func(items fim.ItemSet, support int) {
			once.Do(func() { first = time.Now() })
			collect.Report(items, support)
		})
		opts.Stats, opts.TraceWriter = &r.stats, &trace
		rt0 = readRT()
	}
	mine := tr.begin("engine.mine", job, req)
	err = fim.Mine(db, opts, rep)
	tr.end(mine)
	if err != nil {
		return r, err
	}
	if tr != nil {
		d := readRT().sub(rt0)
		r.mineAllocs, r.mineGCCPU = d.allocs, d.gcCPU
		if err := tr.addJSONSpans(trace.Bytes(), mine, req); err != nil {
			return r, err
		}
		if !first.IsZero() {
			m := tr.get(mine)
			r.build = first.Sub(m.Start.Add(r.stats.PrepTime))
			r.report = m.End.Sub(first)
		}
	}

	sp = tr.begin("result.sort", job, req)
	set.Sort()
	r.sort = tr.end(sp)

	sp = tr.begin("result.encode", job, req)
	var out bytes.Buffer
	err = set.Write(&out, db.Names)
	r.encode = tr.end(sp)
	if err != nil {
		return r, err
	}
	r.wall, r.cpu = time.Since(t0), cpuTime()-c0
	r.out, r.count = out.Bytes(), set.Len()
	return r, nil
}

func jobName(j batchJob) string {
	if j.workers > 1 {
		return fmt.Sprintf("%s-p%d", j.algo, j.workers)
	}
	return string(j.algo)
}
