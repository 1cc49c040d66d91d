package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	fim "repro"
	"repro/internal/core"
	"repro/internal/gendata"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/txdb"
)

// Request kinds of the serve workload, in op1..op3 order.
const (
	kindMine = iota
	kindTx
	kindClosed
)

var kindNames = [3]string{"mine", "tx", "closed"}

// serveParams are the serve workload's parameters, recorded with every
// result.
type serveParams struct {
	Items         int     `json:"items"`
	Preload       int     `json:"preload_tx"`
	Stream        int     `json:"stream_tx"`
	PoolBodies    int     `json:"mine_pool_bodies"`
	BodyTx        int     `json:"mine_body_tx"`
	MineMinsup    int     `json:"mine_minsup"`
	ClosedSupport int     `json:"closed_support"`
	Rate          float64 `json:"open_loop_rps"`
	Mix           string  `json:"mix"`
	OpenShare     float64 `json:"open_loop_share"`
	Clients       int     `json:"clients"`
	// CostRate × the rest of --seconds is the cost loop's request count.
	CostRate      float64 `json:"cost_loop_requests_per_s"`
	SnapshotEvery int     `json:"snapshot_every"`
	SyncEvery     int     `json:"sync_every"`
	// Limits are the latency limits (ms) of each kind at the percentile
	// its tail metric reports: mine p99, tx p99, closed p95.
	Limits [3]float64 `json:"limits_ms"`
}

// serveConfig returns the serve workload's parameters. The basis of
// each traffic parameter, as measured on a 2-vCPU host:
//   - BodyTx: the /mine bodies should cost a few ms of IsTa and be
//     several times smaller than a 1,000-transaction body (40 ms); 250
//     transactions cost 1.6–3 ms of IsTa, a 4.5–8-ms request.
//   - MineMinsup: no measured basis; 4 gives some 900 closed sets per
//     body (8 gives some 500 at about the same cost).
//   - ClosedSupport: no measured basis for the support itself; at 40
//     the /closed median (4–6.5 ms) is of the order of a /closed
//     request measured on the daemon before (4.5 ms).
//   - Mix: equal thirds is unverified: no traffic record gives a ratio.
//   - Rate: the open loop should keep the server about half busy; at
//     90/s a request is in flight 30–55% of the time (the report's
//     open_loop_busy_frac).
//   - CostRate: 75 requests per second of the cost loop's share of
//     --seconds keeps the loop within about that share on a 2-vCPU host
//     (the report's capacity_rps: one client's completion rate, the
//     collection before each request included).
func serveConfig(scale float64) serveParams {
	return serveParams{
		Items:         120,
		Preload:       max(100, int(2000*scale)),
		Stream:        1000, // the /tx count of a 30-s run (300 open-loop, 500 cost-loop); cycled beyond
		PoolBodies:    16,
		BodyTx:        250,
		MineMinsup:    4,
		ClosedSupport: max(2, int(math.Round(40*scale))),
		// Not higher: /tx fsyncs and /closed reads serialize on the store
		// lock, and at 150/s a host slowdown of 1.7× pushed the open loop
		// into saturation and its medians up 5–8×.
		Rate:          90,
		Mix:           "1/3 mine, 1/3 tx, 1/3 closed (unverified), each block of three shuffled by the seed",
		OpenShare:     1.0 / 3,
		Clients:       2,
		CostRate:      75,
		SnapshotEvery: 256,
		SyncEvery:     1,
		Limits:        [3]float64{60, 60, 60},
	}
}

// serveInput is the generated input of one serve run.
type serveInput struct {
	preload, stream [][]int
	bodies          [][]byte // JSON /mine bodies
	bodyRows        [][][]int
	want            []int // closed-set count of each body, from fim.Mine
	txBodies        [][]byte
}

// makeServeInput generates the store preload, the /tx stream and the
// /mine pool from the fixed data seed, relabels their items by one
// permutation drawn from the run seed, and shuffles the stream with it,
// so the store's content at the end of a run is the same up to item
// names for every seed.
func makeServeInput(p serveParams, seed, dataSeed int64) (*serveInput, error) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(p.Items)
	store := relabeled(gendata.Quest(gendata.QuestConfig{
		Items: p.Items, Transactions: p.Preload + p.Stream, AvgLen: 10,
		Patterns: 30, AvgPatternLen: 4, Seed: dataSeed,
	}), perm)
	pool := relabeled(gendata.Quest(gendata.QuestConfig{
		Items: p.Items, Transactions: p.PoolBodies * p.BodyTx, AvgLen: 10,
		Patterns: 30, AvgPatternLen: 4, Seed: dataSeed + 1,
	}), perm)
	in := &serveInput{preload: store[:p.Preload], stream: shuffled(store[p.Preload:], rng)}
	for b := 0; b < p.PoolBodies; b++ {
		rows := pool[b*p.BodyTx : (b+1)*p.BodyTx]
		body, err := json.Marshal(map[string]any{"transactions": rows, "minSupport": p.MineMinsup})
		if err != nil {
			return nil, err
		}
		var set fim.ResultSet
		if err := fim.Mine(fim.NewDatabase(rows), fim.Options{MinSupport: p.MineMinsup}, set.Collect()); err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.bodyRows = append(in.bodyRows, rows)
		in.want = append(in.want, set.Len())
	}
	for _, row := range in.stream {
		body, err := json.Marshal(map[string]any{"items": row})
		if err != nil {
			return nil, err
		}
		in.txBodies = append(in.txBodies, body)
	}
	return in, nil
}

// liveServer is a serve.Server on a loopback listener.
type liveServer struct {
	dir  string
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
}

// preloadStore writes in.preload into a new durable store in dir and
// leaves it as one snapshot, so opening it replays no log.
func preloadStore(dir string, p serveParams, in *serveInput) error {
	d, err := persist.Open(dir, persist.Options{Items: p.Items, SnapshotEvery: -1, SyncEvery: math.MaxInt32})
	if err != nil {
		return err
	}
	for _, row := range in.preload {
		if err := d.AddSet(itemset.FromInts(row...)); err != nil {
			d.Close()
			return err
		}
	}
	if err := d.Snapshot(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// startServer preloads a durable store in dir and serves it; sink, when
// non-nil, receives the server's and the store's spans.
func startServer(dir string, p serveParams, in *serveInput, sink obs.Sink) (*liveServer, error) {
	if err := preloadStore(dir, p, in); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{
		MaxQueue: serve.DefaultMaxQueue,
		StoreDir: dir,
		StoreOptions: persist.Options{
			Items: p.Items, SnapshotEvery: p.SnapshotEvery, SyncEvery: p.SyncEvery, Obs: sink,
		},
		Obs: sink,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{dir: dir, srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.http.Serve(ln) }()
	return ls, nil
}

// stop drains the server (final snapshot included) and closes it.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.srv.Drain(ctx)
	if serr := ls.http.Shutdown(ctx); err == nil {
		err = serr
	}
	<-ls.done
	if cerr := ls.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// record is one timed request.
type record struct {
	kind            int
	due, sent, done time.Time
	err             error
}

func (r record) latency() time.Duration { return r.done.Sub(r.due) }

// client sends the workload's requests over at most p.Clients
// connections.
type client struct {
	p     serveParams
	in    *serveInput
	url   string
	http  *http.Client
	acked atomic.Int64
	txSeq atomic.Int64
}

func newClient(p serveParams, in *serveInput, url string) *client {
	tr := &http.Transport{MaxConnsPerHost: p.Clients, MaxIdleConnsPerHost: p.Clients}
	return &client{p: p, in: in, url: url, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request of the given kind and checks its answer.
func (c *client) do(kind, body int) error {
	var resp *http.Response
	var err error
	switch kind {
	case kindMine:
		resp, err = c.http.Post(c.url+"/mine", "application/json", bytes.NewReader(c.in.bodies[body]))
	case kindTx:
		k := int(c.txSeq.Add(1)-1) % len(c.in.txBodies)
		resp, err = c.http.Post(c.url+"/tx", "application/json", bytes.NewReader(c.in.txBodies[k]))
	case kindClosed:
		resp, err = c.http.Get(fmt.Sprintf("%s/closed?support=%d", c.url, c.p.ClosedSupport))
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var ans struct {
		Count int `json:"count"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&ans)
	io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", kindNames[kind], resp.StatusCode)
	}
	if derr != nil {
		return fmt.Errorf("%s: %v", kindNames[kind], derr)
	}
	switch kind {
	case kindMine:
		if ans.Count != c.in.want[body] {
			return fmt.Errorf("mine: body %d gave %d closed sets, fim.Mine gives %d", body, ans.Count, c.in.want[body])
		}
	case kindTx:
		c.acked.Add(1)
	case kindClosed:
		if ans.Count == 0 {
			return fmt.Errorf("closed: empty answer")
		}
	}
	return nil
}

// openLoop sends requests on a fixed schedule for d: the rate is fixed,
// kinds come in blocks of three shuffled by the seed, and each request
// is timed from when it was due.
func (c *client) openLoop(d time.Duration, seed int64) []record {
	rng := rand.New(rand.NewSource(seed))
	n := int(d.Seconds() * c.p.Rate)
	plan := make([]record, n)
	bodies := make([]int, n)
	start := time.Now().Add(10 * time.Millisecond)
	for i := 0; i < n; i += 3 {
		kinds := rng.Perm(3)
		for j := 0; j < 3 && i+j < n; j++ {
			plan[i+j].kind = kinds[j]
			plan[i+j].due = start.Add(time.Duration(float64(i+j) / c.p.Rate * float64(time.Second)))
			bodies[i+j] = rng.Intn(len(c.in.bodies))
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.p.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := &plan[i]
				time.Sleep(time.Until(r.due))
				r.sent = time.Now()
				r.err = c.do(r.kind, bodies[i])
				r.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return plan
}

// costLoop sends n requests one after another over one connection,
// kinds in blocks of three shuffled by the seed, and returns them with
// the CPU time the process spent on each: with one request in flight at
// a time, that is the request's client and server side together. Like a
// batch job, each request starts after a collection, so it is not
// charged for collecting its predecessors' garbage (a collection marks
// the whole store tree, and which requests it fell into varied from run
// to run). A request then triggers no collection of its own, so its
// peak live heap is the server's retained heap. The count is fixed, not
// the duration, so the store grows by the same /tx count on every host.
func (c *client) costLoop(n int, seed int64, heap *heapSampler) (recs []record, cpu []time.Duration, peakMB []float64) {
	rng := rand.New(rand.NewSource(seed))
	recs = make([]record, n)
	cpu = make([]time.Duration, n)
	peakMB = make([]float64, n)
	var kinds []int
	for i := range recs {
		if len(kinds) == 0 {
			kinds = rng.Perm(3)
		}
		r := &recs[i]
		r.kind, kinds = kinds[0], kinds[1:]
		body := rng.Intn(len(c.in.bodies))
		quiesce()
		heap.begin()
		r.due, r.sent = time.Now(), time.Now()
		c0 := cpuTime()
		r.err = c.do(r.kind, body)
		cpu[i] = cpuTime() - c0
		r.done = time.Now()
		peakMB[i] = heap.end()
	}
	return recs, cpu, peakMB
}

// serveSetup generates the input and starts a preloaded server in a
// fresh directory under e.dir.
func serveSetup(e *env, p serveParams, sink obs.Sink, n int) (*serveInput, *liveServer, error) {
	in, err := makeServeInput(p, e.seed, e.w.dataSeed)
	if err != nil {
		return nil, nil, err
	}
	ls, err := startServer(filepath.Join(e.dir, fmt.Sprintf("store%d", n)), p, in, sink)
	return in, ls, err
}

// serveSetupReps is how often a serve run repeats its set-up (input
// generation, store preload, server start), each after a collection;
// setup_s is the median.
const serveSetupReps = 5

func runServe(e *env) (*outcome, error) {
	p := serveConfig(e.scale)
	o := newOutcome()
	o.report["params"] = p
	if e.trace {
		return o, traceServe(e, o, p)
	}
	heap := startHeapSampler()
	var in *serveInput
	var ls *liveServer
	var setup, setupWall samples
	for i := range serveSetupReps {
		if ls != nil {
			if err := ls.stop(); err != nil {
				heap.stopMB()
				return nil, err
			}
		}
		quiesce()
		t0, c0 := time.Now(), cpuTime()
		var err error
		if in, ls, err = serveSetup(e, p, nil, i); err != nil {
			heap.stopMB()
			return nil, err
		}
		setup = append(setup, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	o.metrics["setup_s"] = setup.median()
	o.report["setup_wall_s"] = setupWall.median()

	c := newClient(p, in, ls.url)
	defer c.close()
	open := c.openLoop(e.budget(p.OpenShare), e.seed)
	t0 := time.Now()
	costRecs, costCPU, costPeak := c.costLoop(max(3, int(p.CostRate*e.seconds*(1-p.OpenShare))), e.seed, heap)
	costWall := time.Since(t0)
	if err := ls.stop(); err != nil {
		heap.stopMB()
		return nil, err
	}
	o.report["peak_heap_max_mb"] = heap.stopMB()

	wall := openLoopFigures(e, o, p, open)
	var cpu, peak [3]samples
	for i, r := range costRecs {
		o.check(e.log, r.err)
		cpu[r.kind] = append(cpu[r.kind], ms(costCPU[i]))
		peak[r.kind] = append(peak[r.kind], costPeak[i])
	}
	o.metrics["peak_heap_mb"] = typicalPeak(peak)
	o.setOps(e, cpu, wall)
	// One client's completion rate, one request in flight at a time.
	o.report["capacity_rps"] = float64(len(costRecs)) / costWall.Seconds()
	o.report["samples"] = map[string]int{"open_loop": len(open), "cost_loop": len(costRecs), "setup": len(setup)}
	_, err := checkStore(e, o, p, ls.dir, in, c.acked.Load())
	return o, err
}

// openLoopFigures checks the open-loop requests into o and returns the
// latency samples (ms) of each kind; it records the SLO misses and the
// generator lateness in the report.
func openLoopFigures(e *env, o *outcome, p serveParams, recs []record) [3]samples {
	var lat [3]samples
	var late samples
	misses := 0
	for _, r := range recs {
		o.check(e.log, r.err)
		l := ms(r.latency())
		lat[r.kind] = append(lat[r.kind], l)
		late = append(late, ms(r.sent.Sub(r.due)))
		if r.err != nil || l > p.Limits[r.kind] {
			misses++
		}
	}
	o.report["slo_miss_frac"] = float64(misses) / float64(max(1, len(recs)))
	o.report["gen_late_p99_ms"] = late.pct(0.99)
	o.report["open_loop_busy_frac"] = busyFrac(recs)
	return lat
}

// busyFrac returns the share of the open loop, from the first due time
// to the last completion, during which at least one request was in
// flight.
func busyFrac(recs []record) float64 {
	if len(recs) == 0 {
		return 0
	}
	phase := span{Start: recs[0].due}
	inFlight := make([]span, len(recs))
	for i, r := range recs {
		inFlight[i] = span{Start: r.sent, End: r.done}
		if r.done.After(phase.End) {
			phase.End = r.done
		}
	}
	return float64(covered(phase, inFlight)) / float64(phase.dur())
}

// checkStore reopens the drained store and checks it holds the preload
// plus exactly the acknowledged /tx appends; it returns the recovery
// time.
func checkStore(e *env, o *outcome, p serveParams, dir string, in *serveInput, acked int64) (time.Duration, error) {
	t0 := time.Now()
	d, err := persist.Open(dir, persist.Options{Items: p.Items})
	took := time.Since(t0)
	if err != nil {
		o.check(e.log, err)
		return took, nil
	}
	if got, want := d.Transactions(), len(in.preload)+int(acked); got != want {
		o.check(e.log, fmt.Errorf("reopened store holds %d transactions, want %d preloaded + %d acknowledged", got, len(in.preload), acked))
	} else {
		o.check(e.log, nil)
	}
	return took, d.Close()
}

// traceServe is the traced run of the serve workload: the open-loop
// phase runs once on an untraced server and once on a server whose
// spans (and its store's) go to the tracer; the per-layer figures come
// from the traced phase and from direct calls on the same inputs.
func traceServe(e *env, o *outcome, p serveParams) error {
	for _, m := range perLayer {
		o.metrics[m.Name] = 0
	}
	tr := &tracer{}
	var mean [2]float64
	var traced []record
	var tracedIn *serveInput
	var acked int64
	for phase := 0; phase < 2; phase++ {
		var sink obs.Sink
		root := 0
		if phase == 1 {
			root = tr.begin("serve.open_loop", 0, 0)
			sink = tr.sink(root, 0)
		}
		in, ls, err := serveSetup(e, p, sink, phase)
		if err != nil {
			return err
		}
		c := newClient(p, in, ls.url)
		recs := c.openLoop(e.budget(1.0/3), e.seed)
		if phase == 1 {
			if err := c.statusz(o); err != nil {
				return err
			}
		}
		c.close()
		if err := ls.stop(); err != nil {
			return err
		}
		if phase == 1 {
			tr.end(root)
		}
		var all samples
		for _, r := range recs {
			all = append(all, ms(r.latency()))
		}
		mean[phase] = all.mean()
		if phase == 0 {
			openLoopFigures(e, o, p, recs)
			o.metrics["serve.slo_miss_frac"] = o.report["slo_miss_frac"].(float64)
			if _, err := checkStore(e, o, p, ls.dir, in, c.acked.Load()); err != nil {
				return err
			}
			continue
		}
		for _, r := range recs {
			o.check(e.log, r.err)
			id := tr.newReq()
			tr.add("client."+kindNames[r.kind], root, id, r.sent, r.done.Sub(r.sent))
		}
		traced, tracedIn, acked = recs, in, c.acked.Load()
		took, err := checkStore(e, o, p, ls.dir, in, acked)
		if err != nil {
			return err
		}
		o.metrics["persist.recover_s"] = took.Seconds()
	}
	o.metrics["trace.overhead_frac"] = mean[1]/mean[0] - 1

	var late, client, handler samples
	for _, r := range traced {
		late = append(late, ms(r.sent.Sub(r.due)))
		client = append(client, ms(r.done.Sub(r.sent)))
	}
	spans := map[string]int{}
	for _, name := range kindNames {
		d := tr.durations(obs.PhaseRequest + ":" + name)
		o.metrics["serve.request_ms."+name] = d.median()
		handler = append(handler, d...)
		spans[name] = len(d)
	}
	o.report["request_spans"] = spans
	o.metrics["serve.gen_late_p99_ms"] = late.pct(0.99)
	o.metrics["serve.transport_ms"] = client.mean() - handler.mean()
	o.metrics["persist.snapshot_ms"] = tr.durations(obs.PhaseSnapshot).median()
	o.metrics["persist.rotate_ms"] = tr.durations(obs.PhaseRotate).median()
	o.metrics["persist.snapshots"] = float64(len(tr.durations(obs.PhaseSnapshot)))

	if err := directStoreProbes(e, o, p, tracedIn, int(acked)); err != nil {
		return err
	}
	if err := poolJobs(e, o, p, tracedIn, tr); err != nil {
		return err
	}
	pairReplay(o, fim.NewDatabase(tracedIn.preload), p.ClosedSupport)
	return writeTrace(e, tr)
}

// statusz reads the admission counters from /statusz.
func (c *client) statusz(o *outcome) error {
	resp, err := c.http.Get(c.url + "/statusz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st struct {
		Admission struct {
			Admitted, Queued, Shed int64
		} `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("statusz: %v", err)
	}
	o.metrics["serve.queued_frac"] = float64(st.Admission.Queued) / float64(max(1, st.Admission.Admitted))
	o.metrics["serve.shed"] = float64(st.Admission.Shed)
	return nil
}

// directStoreProbes times the store and incremental-miner calls on the
// traced phase's transaction stream: core.Incremental.AddSet without a
// log, persist.Durable.AddSet with the server's sync setting, and
// Durable.ClosedSet.
func directStoreProbes(e *env, o *outcome, p serveParams, in *serveInput, acked int) error {
	stream := in.stream[:min(acked, len(in.stream))]
	inc := core.NewIncremental(p.Items)
	for _, row := range in.preload {
		if err := inc.AddSet(itemset.FromInts(row...)); err != nil {
			return err
		}
	}
	var incAdd samples
	for _, row := range stream {
		t := itemset.FromInts(row...)
		t0 := time.Now()
		if err := inc.AddSet(t); err != nil {
			return err
		}
		incAdd = append(incAdd, ms(time.Since(t0)))
	}
	o.metrics["core.inc_add_ms"] = incAdd.median()

	dir := filepath.Join(e.dir, "direct")
	if err := preloadStore(dir, p, in); err != nil {
		return err
	}
	d, err := persist.Open(dir, persist.Options{Items: p.Items, SnapshotEvery: -1, SyncEvery: p.SyncEvery})
	if err != nil {
		return err
	}
	defer d.Close()
	var add, closed samples
	for _, row := range stream[:min(len(stream), 300)] {
		t0 := time.Now()
		if err := d.AddSet(itemset.FromInts(row...)); err != nil {
			return err
		}
		add = append(add, ms(time.Since(t0)))
	}
	for range 5 {
		t0 := time.Now()
		d.ClosedSet(p.ClosedSupport)
		closed = append(closed, ms(time.Since(t0)))
	}
	o.metrics["persist.add_ms"], o.metrics["persist.closed_ms"] = add.median(), closed.median()
	return d.Close()
}

// poolJobs mines the /mine pool bodies directly, traced, for the layer
// figures of the request path (prep, core, dataset, result) that the
// server does not expose.
func poolJobs(e *env, o *outcome, p serveParams, in *serveInput, tr *tracer) error {
	spec := batchSpec{minsup: p.MineMinsup, jobs: [3]batchJob{{fim.IsTa, 0}}}
	var res [3][]jobResult
	var srcs []txdb.Source
	for b, rows := range in.bodyRows {
		data, err := encodeFIMI(rows)
		if err != nil {
			return err
		}
		quiesce()
		r, err := runJob(data, p.MineMinsup, spec.jobs[0], tr)
		if err == nil && r.count != in.want[b] {
			err = fmt.Errorf("pool body %d: %d closed sets, want %d", b, r.count, in.want[b])
		}
		o.check(e.log, err)
		res[0] = append(res[0], r)
		srcs = append(srcs, fim.NewDatabase(rows))
	}
	aggregateJobs(o, spec, res, tr)
	prepProbe(o, srcs, p.MineMinsup, fim.IsTa)
	return nil
}
