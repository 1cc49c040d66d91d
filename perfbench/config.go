package main

// metric is one reported figure: its name, its unit, and which direction
// is better. The lists below are the single definition of every metric
// name; BENCHMARK.json at the repository root must list the same ones
// (the package tests check it).
type metric struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload. Each workload runs three operation
// kinds, op1..op3 (see workload.ops); op<k>_cpu_ms is the median CPU
// time (user and system, all threads: the whole job, or a request's
// client and server side together) of one operation of kind k,
// peak_heap_mb the peak live heap of one operation (see typicalPeak),
// and setup_s the median CPU time of one set-up. Wall-clock latencies,
// their tails and the completion rate are in the report only: on a
// shared 2-vCPU virtual machine the wall clock counts the time the host
// does not run the vCPU, and the middle half of ten runs of one build
// spread over 0.5 to 0.9 of the median (see cpuTime).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"op1_cpu_ms", "ms", "lower"},
	{"op2_cpu_ms", "ms", "lower"},
	{"op3_cpu_ms", "ms", "lower"},
}

// perLayer are the metrics of single layers, printed by every traced run
// of every workload; a layer the workload does not exercise reads 0.
// Timings are medians per job (batch) or per request (serve).
var perLayer = []metric{
	{"dataset.decode_s", "s", "lower"},
	{"dataset.decode_allocs", "count", "lower"},
	{"prep.prep_s", "s", "lower"},
	{"prep.allocs", "count", "lower"},
	{"prep.tx_kept_frac", "frac", "lower"},
	{"prep.items_kept_frac", "frac", "lower"},
	{"core.mine_s", "s", "lower"},
	{"core.build_s", "s", "lower"},
	{"core.report_s", "s", "lower"},
	{"core.isect_passes", "count", "lower"},
	{"core.nodes_peak", "count", "lower"},
	{"core.allocs", "count", "lower"},
	{"core.gc_cpu_s", "s", "lower"},
	{"core.inc_add_ms", "ms", "lower"},
	{"carpenter.mine_s", "s", "lower"},
	{"carpenter.ops", "count", "lower"},
	{"carpenter.nodes_peak", "count", "lower"},
	{"carpenter.gc_cpu_s", "s", "lower"},
	{"parallel.mine_s", "s", "lower"},
	{"parallel.merge_s", "s", "lower"},
	{"parallel.speedup", "x", "higher"},
	{"lcm.mine_s", "s", "lower"},
	{"lcm.ops", "count", "lower"},
	{"fpgrowth.mine_s", "s", "lower"},
	{"eclat.mine_s", "s", "lower"},
	{"tidset.isects", "count", "lower"},
	{"tidset.early_stops", "count", "higher"},
	{"tidset.early_stop_frac", "frac", "higher"},
	{"tidset.rep_switches", "count", "lower"},
	{"tidset.pair_ns", "ns", "lower"},
	{"tidset.pair_allocs", "count", "lower"},
	{"result.sort_s", "s", "lower"},
	{"result.encode_s", "s", "lower"},
	{"result.out_mb", "MB", "lower"},
	{"persist.add_ms", "ms", "lower"},
	{"persist.snapshot_ms", "ms", "lower"},
	{"persist.rotate_ms", "ms", "lower"},
	{"persist.snapshots", "count", "lower"},
	{"persist.closed_ms", "ms", "lower"},
	{"persist.recover_s", "s", "lower"},
	{"serve.request_ms.mine", "ms", "lower"},
	{"serve.request_ms.tx", "ms", "lower"},
	{"serve.request_ms.closed", "ms", "lower"},
	{"serve.transport_ms", "ms", "lower"},
	{"serve.queued_frac", "frac", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.gen_late_p99_ms", "ms", "lower"},
	{"serve.slo_miss_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// workload is one named set of inputs. The base data comes from a fixed
// generator seed, dataSeed; the run seed relabels its items and shuffles
// its transactions (see seededRows and makeServeInput). The run seed
// does not choose the generator seed: across generator seeds 1–12 the
// basket jobs' cost ranged 4× (LCM) to 18× (Eclat) and the gene jobs'
// up to 1.9× (Carpenter), while relabelling moved the gene jobs by up to
// a third and the basket jobs within the timing noise.
type workload struct {
	name string
	// seed is the default run seed; heldOut is kept for checking a
	// later claim on inputs not used while the change was written.
	seed, heldOut int64
	// dataSeed is the fixed generator seed of the base data.
	dataSeed int64
	// ops names what op1..op3 measure on this workload.
	ops [3]string
	// tails are the percentiles of op1..op3 reported as their tail. For
	// serve each has at least ten samples beyond it; a batch run
	// completes only ten to thirty jobs of a kind, so its tail is the
	// upper quartile.
	tails [3]float64
	run   func(e *env) (*outcome, error)
}

var workloads = []workload{
	{
		name: "gene", seed: 1, heldOut: 1001, dataSeed: 1,
		ops:   [3]string{"ista_job", "carp_job", "carp_p2_job"},
		tails: [3]float64{0.75, 0.75, 0.75},
		run:   runGene,
	},
	{
		name: "basket", seed: 7, heldOut: 1007, dataSeed: 7,
		ops:   [3]string{"lcm_job", "eclat_job", "fpclose_job"},
		tails: [3]float64{0.75, 0.75, 0.75},
		run:   runBasket,
	},
	{
		name: "serve", seed: 11, heldOut: 1011, dataSeed: 11,
		ops:   [3]string{"mine", "tx", "closed"},
		tails: [3]float64{0.99, 0.99, 0.95},
		run:   runServe,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
