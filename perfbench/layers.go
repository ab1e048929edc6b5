package main

import (
	"fmt"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/core"
	"streamcalc/internal/curve"
	"streamcalc/internal/load"
	"streamcalc/internal/obs"
)

// Per-layer tracing. Every figure is taken from outside the program:
// client-side spans around each call, the controller's flight recorder
// (in-process Recorder().Snapshot, the daemon's /debug/decisions), the
// process-wide curve.SetOpTimer and core.SetAnalysisTimer hooks in-process
// (the daemon's nc_curve_op_seconds and nc_analysis_seconds families over
// HTTP), the revalidation pool's RevalidateOptions.Metrics registry, and
// runtime/metrics in the benchmark process.

// curveOps are the curve operators reported per layer.
var curveOps = []string{"convolve", "deconvolve", "hdev", "vdev", "residual", "sub_const", "min", "fifo_residual"}

// admitPhases are the recorder phases reported per layer.
var admitPhases = []string{"precheck", "queue_wait", "analysis", "victim_sweep", "validate_commit", "handoff"}

const (
	pollEvery      = 256     // churn ops between decision polls
	pollLimit      = 320     // records asked for per poll (> pollEvery)
	inprocRecorder = 4096    // in-process flight-recorder depth
	maxHookSpans   = 100_000 // curve/analysis spans kept for the Chrome trace
)

// Chrome trace threads.
const (
	tidClient   = 1
	tidCurve    = 2
	tidAnalysis = 3
)

type interval struct{ lo, hi int64 }

// tracer collects one traced run.
type tracer struct {
	o     options
	base  time.Time
	trace *obs.Trace

	mu        sync.Mutex
	spans     int
	hookSpans int
	dropped   int
	curveS    map[string]float64
	curveN    map[string]int
	analysisS float64
	analyses  int
	inPass    bool
	passIv    []interval
	passTotal time.Duration
	passCover time.Duration

	poolReg *obs.Registry
	hooked  bool

	c      *admit.Controller // in-process target
	d      *daemon           // churn-http target
	target load.Target

	lastSeq     uint64
	recs        []admit.DecisionRecord
	batchRecs   []admit.DecisionRecord
	batchClient time.Duration
	churn       churnResult

	cache0, cache1 cacheCounters
	daemon0        daemonCounters
	daemon1        daemonCounters
	rt0, rt1       []rtmetrics.Sample
}

// cacheCounters are the hit/miss tallies behind the cache ratios.
type cacheCounters struct {
	verdictHits, verdictMisses   uint64
	analysisHits, analysisMisses uint64
	curveHits, curveMisses       uint64
}

// daemonCounters are the daemon's timing families at one scrape.
type daemonCounters struct {
	curveS    map[string]float64
	curveN    map[string]uint64
	analysisS float64
	analyses  uint64
}

func newTracer(o options) *tracer {
	t := &tracer{
		o:       o,
		base:    time.Now(),
		trace:   obs.NewTrace(),
		curveS:  map[string]float64{},
		curveN:  map[string]int{},
		poolReg: obs.NewRegistry(),
	}
	t.trace.ThreadName(tidClient, "client lane")
	t.trace.ThreadName(tidCurve, "curve ops")
	t.trace.ThreadName(tidAnalysis, "analysis")
	return t
}

func (t *tracer) at(tm time.Time) float64 { return tm.Sub(t.base).Seconds() }

// span records one Chrome trace complete event.
func (t *tracer) span(name, cat string, tid int64, start time.Time, d time.Duration, args map[string]any) {
	t.spans++
	t.trace.Complete(name, cat, tid, t.at(start), d.Seconds(), args)
}

// hookSpan records a curve or analysis span, up to maxHookSpans of them;
// the totals behind the layer metrics count every call regardless.
func (t *tracer) hookSpan(name, cat string, tid int64, start time.Time, d time.Duration) {
	if t.hookSpans >= maxHookSpans {
		t.dropped++
		return
	}
	t.hookSpans++
	t.span(name, cat, tid, start, d, nil)
}

// attachInproc enables the controller's flight recorder and the process-wide
// curve and analysis timers.
func (t *tracer) attachInproc(c *admit.Controller) {
	t.c = c
	c.EnableFlightRecorder(inprocRecorder)
	t.cache0 = inprocCaches(c)
	curve.SetOpTimer(t.onCurve)
	core.SetAnalysisTimer(t.onAnalysis)
	t.hooked = true
}

// attachDaemon snapshots the daemon's counters before the ramp.
func (t *tracer) attachDaemon(d *daemon, target load.Target) error {
	t.d, t.target = d, target
	var err error
	if t.daemon0, err = scrapeDaemon(d); err != nil {
		return err
	}
	h, err := d.health()
	if err != nil {
		return err
	}
	t.cache0 = daemonCaches(h)
	t.lastSeq = h.Recorder.Seq
	return nil
}

// detach removes the process-wide hooks.
func (t *tracer) detach() {
	if t.hooked {
		curve.SetOpTimer(nil)
		core.SetAnalysisTimer(nil)
		t.hooked = false
	}
}

func (t *tracer) onCurve(op string, sec float64) {
	now := time.Now()
	d := time.Duration(sec * float64(time.Second))
	t.mu.Lock()
	t.curveS[op] += sec
	t.curveN[op]++
	if t.inPass {
		t.passIv = append(t.passIv, interval{now.Add(-d).UnixNano(), now.UnixNano()})
	}
	t.hookSpan(op, "curve", tidCurve, now.Add(-d), d)
	t.mu.Unlock()
}

func (t *tracer) onAnalysis(sec float64) {
	now := time.Now()
	d := time.Duration(sec * float64(time.Second))
	t.mu.Lock()
	t.analysisS += sec
	t.analyses++
	if t.inPass {
		t.passIv = append(t.passIv, interval{now.Add(-d).UnixNano(), now.UnixNano()})
	}
	t.hookSpan("analyze", "core", tidAnalysis, now.Add(-d), d)
	t.mu.Unlock()
}

func (t *tracer) beginPass() {
	t.mu.Lock()
	t.inPass = true
	t.passIv = t.passIv[:0]
	t.mu.Unlock()
}

// endPass closes a revalidation pass: the part of it not covered by curve
// operations or analyses is replay simulation (and pool overhead).
func (t *tracer) endPass(start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inPass = false
	t.passTotal += d
	t.passCover += time.Duration(covered(t.passIv, start.UnixNano(), start.Add(d).UnixNano()))
	t.span("revalidate pass", "bulk", tidClient, start, d, nil)
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi int64) int64 {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, lo), min(iv.hi, hi)
		if iv.hi > iv.lo {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total, curLo, curHi int64
	for i, iv := range s {
		switch {
		case i == 0:
			curLo, curHi = iv.lo, iv.hi
		case iv.lo > curHi:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		case iv.hi > curHi:
			curHi = iv.hi
		}
	}
	if len(s) > 0 {
		total += curHi - curLo
	}
	return total
}

// afterBatch polls the daemon's batch decision for the ramp batch that just
// returned.
func (t *tracer) afterBatch(start time.Time, d time.Duration) error {
	t.batchClient += d
	t.span("admit/batch", "client", tidClient, start, d, nil)
	recs, err := t.poll()
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.Kind == admit.KindBatch {
			t.batchRecs = append(t.batchRecs, r)
		}
	}
	return nil
}

// beginChurn marks the start of the churn phase.
func (t *tracer) beginChurn(target load.Target) {
	t.target = target
	if t.c != nil {
		t.lastSeq = t.c.Recorder().Seq()
	}
	t.rt0 = readRuntime()
}

// afterOp polls decision records every pollEvery ops.
func (t *tracer) afterOp(i int) error {
	if (i+1)%pollEvery != 0 {
		return nil
	}
	recs, err := t.poll()
	t.recs = append(t.recs, recs...)
	return err
}

// poll fetches the decisions recorded since the last poll. The recorder is
// a ring: if the oldest new record is not the successor of the last one
// seen, the ring wrapped between polls and records were lost.
func (t *tracer) poll() ([]admit.DecisionRecord, error) {
	recs, err := t.target.Decisions(pollLimit)
	if err != nil {
		return nil, err
	}
	fresh, last, err := newRecords(recs, t.lastSeq)
	t.lastSeq = last
	return fresh, err
}

// newRecords keeps the records after lastSeq, oldest first, and fails when
// they do not continue the sequence without a gap.
func newRecords(recs []admit.DecisionRecord, lastSeq uint64) ([]admit.DecisionRecord, uint64, error) {
	var fresh []admit.DecisionRecord
	for _, r := range recs {
		if r.Seq > lastSeq {
			fresh = append(fresh, r)
		}
	}
	if len(fresh) == 0 {
		return nil, lastSeq, nil
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Seq < fresh[j].Seq })
	for i, r := range fresh {
		if want := lastSeq + 1 + uint64(i); r.Seq != want {
			return nil, lastSeq, fmt.Errorf("decision ring wrapped between polls: seq %d follows %d", r.Seq, want-1)
		}
	}
	return fresh, fresh[len(fresh)-1].Seq, nil
}

// endChurn takes the last poll and the closing snapshots.
func (t *tracer) endChurn(ch churnResult) error {
	t.rt1 = readRuntime()
	recs, err := t.poll()
	if err != nil {
		return err
	}
	t.recs = append(t.recs, recs...)
	t.churn = ch
	if t.c != nil {
		t.cache1 = inprocCaches(t.c)
		return nil
	}
	if t.daemon1, err = scrapeDaemon(t.d); err != nil {
		return err
	}
	h, err := t.d.health()
	if err != nil {
		return err
	}
	t.cache1 = daemonCaches(h)
	return nil
}

func inprocCaches(c *admit.Controller) cacheCounters {
	s := c.Stats()
	return cacheCounters{
		verdictHits: s.VerdictHits, verdictMisses: s.VerdictMisses,
		analysisHits: s.AnalysisHits, analysisMisses: s.AnalysisMisses,
		curveHits: s.CurveOps.Hits, curveMisses: s.CurveOps.Misses,
	}
}

func daemonCaches(h health) cacheCounters {
	return cacheCounters{
		verdictHits: h.Caches["verdict"].Hits, verdictMisses: h.Caches["verdict"].Misses,
		analysisHits: h.Caches["analysis"].Hits, analysisMisses: h.Caches["analysis"].Misses,
		curveHits: h.Caches["curve_ops"].Hits, curveMisses: h.Caches["curve_ops"].Misses,
	}
}

// scrapeDaemon reads the daemon's curve-operator and analysis timing
// families from /metrics?format=json.
func scrapeDaemon(d *daemon) (daemonCounters, error) {
	var fams []struct {
		Name   string `json:"name"`
		Series []struct {
			Labels map[string]string `json:"labels"`
			Sum    float64           `json:"sum"`
			Count  uint64            `json:"count"`
		} `json:"series"`
	}
	dc := daemonCounters{curveS: map[string]float64{}, curveN: map[string]uint64{}}
	if err := d.getJSON("/metrics?format=json", &fams); err != nil {
		return dc, err
	}
	for _, f := range fams {
		for _, s := range f.Series {
			switch f.Name {
			case "nc_curve_op_seconds":
				dc.curveS[s.Labels["op"]] += s.Sum
				dc.curveN[s.Labels["op"]] += s.Count
			case "nc_analysis_seconds":
				dc.analysisS += s.Sum
				dc.analyses += s.Count
			}
		}
	}
	return dc, nil
}

// Runtime metrics of the benchmark process.
var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() []rtmetrics.Sample {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return s
}

// histDelta subtracts two runtime histograms with equal buckets, returning
// bucket upper bounds and per-bucket counts.
func histDelta(a, b *rtmetrics.Float64Histogram) ([]float64, []uint64) {
	counts := make([]uint64, len(b.Counts))
	for i := range counts {
		counts[i] = b.Counts[i] - a.Counts[i]
	}
	return b.Buckets[1:], counts
}

// histTotal estimates the sum of a histogram's samples from bucket
// midpoints (finite edges only).
func histTotal(uppers []float64, counts []uint64, lowest float64) float64 {
	var sum float64
	lo := lowest
	for i, c := range counts {
		hi := uppers[i]
		mid := (lo + hi) / 2
		switch {
		case lo < -1e300:
			mid = hi
		case hi > 1e300:
			mid = lo
		}
		sum += float64(c) * mid
		lo = hi
	}
	return sum
}

// reconciled is one churn admit split into the layers that add up to the
// client latency: transport (client minus the server decision total), the
// recorded phases, and whatever the phases leave of the total.
type reconciled struct {
	client, transport, phases, unattributed time.Duration
}

func reconcile(client time.Duration, r admit.DecisionRecord) reconciled {
	var ph time.Duration
	for _, p := range r.Phases {
		ph += p.Dur
	}
	transport := client - r.Total
	return reconciled{client: client, transport: transport, phases: ph, unattributed: client - transport - ph}
}

// recKey matches a client op to its decision record.
type recKey struct{ kind, id string }

// finish computes the per-layer metrics, writes the Chrome trace and
// validates it.
func (t *tracer) finish(out, untraced *outcome) error {
	m := out.layers
	byKey := make(map[recKey]admit.DecisionRecord, len(t.recs))
	for _, r := range t.recs {
		if r.Kind == admit.KindAdmit || r.Kind == admit.KindRelease {
			byKey[recKey{r.Kind, r.FlowID}] = r
		}
	}

	var transport, unattributed []float64
	var recon reconciled
	var admits []admit.DecisionRecord
	var wanted, matched int
	for _, op := range t.churn.ops {
		kind := op.kind.String()
		t.span(kind, "client", tidClient, op.start, op.dur, map[string]any{"flow_id": op.id, "ok": op.ok})
		if kind != admit.KindAdmit && kind != admit.KindRelease {
			continue
		}
		wanted++
		r, ok := byKey[recKey{kind, op.id}]
		if !ok {
			continue
		}
		matched++
		t.recordSpans(r, op)
		rc := reconcile(op.dur, r)
		transport = append(transport, ms1(rc.transport))
		if kind == admit.KindAdmit {
			admits = append(admits, r)
			unattributed = append(unattributed, ms1(rc.unattributed))
			recon.client += rc.client
			recon.transport += rc.transport
			recon.phases += rc.phases
			recon.unattributed += rc.unattributed
		}
	}
	out.check("records_matched", wanted > 0 && matched == wanted, "%d of %d admit/release ops matched a decision record", matched, wanted)
	m.set("admit.record_match_ratio", ratio(float64(matched), float64(wanted)), "ratio")

	// ncadmitd: transport and reconciliation (zero in-process: no daemon).
	remote := t.d != nil
	zeroIfLocal := func(v float64) float64 {
		if remote {
			return v
		}
		return 0
	}
	n := float64(max(len(admits), 1))
	m.set("ncadmitd.transport_p50_ms", zeroIfLocal(median(transport)), "ms")
	m.set("ncadmitd.unattributed_p50_ms", zeroIfLocal(median(unattributed)), "ms")
	m.set("ncadmitd.admit_client_mean_ms", zeroIfLocal(ms1(recon.client)/n), "ms")
	m.set("ncadmitd.admit_transport_mean_ms", zeroIfLocal(ms1(recon.transport)/n), "ms")
	m.set("ncadmitd.admit_phases_mean_ms", zeroIfLocal(ms1(recon.phases)/n), "ms")
	m.set("ncadmitd.admit_unattributed_mean_ms", zeroIfLocal(ms1(recon.unattributed)/n), "ms")
	var batchDecide time.Duration
	for _, r := range t.batchRecs {
		batchDecide += r.Total
	}
	m.set("ncadmitd.batch_transport_s", zeroIfLocal((t.batchClient - batchDecide).Seconds()), "s")
	m.set("admit.batch_decide_s", batchDecide.Seconds(), "s")

	// admit: recorder phases, victims, caches.
	for _, ph := range admitPhases {
		vals := make([]float64, len(admits))
		for i, r := range admits {
			for _, p := range r.Phases {
				if p.Phase == ph {
					vals[i] += ms1(p.Dur)
				}
			}
		}
		m.set("admit."+ph+"_p50_ms", median(vals), "ms")
	}
	var checked, reused, combos, pruned int
	for _, r := range admits {
		checked += r.VictimsChecked
		reused += r.VictimsReused
		combos += r.RungCombos
		pruned += r.RungPruned
	}
	m.set("admit.victims_checked_per_admit", float64(checked)/n, "count")
	m.set("admit.victims_reused_per_admit", float64(reused)/n, "count")
	c0, c1 := t.cache0, t.cache1
	m.set("admit.verdict_cache_hit_ratio", hitRatio(c1.verdictHits-c0.verdictHits, c1.verdictMisses-c0.verdictMisses), "ratio")
	m.set("admit.analysis_cache_hit_ratio", hitRatio(c1.analysisHits-c0.analysisHits, c1.analysisMisses-c0.analysisMisses), "ratio")
	m.set("curve.memo_hit_ratio", hitRatio(c1.curveHits-c0.curveHits, c1.curveMisses-c0.curveMisses), "ratio")

	// core and curve: hook totals in-process, family deltas on the daemon.
	m.set("core.rung_combos_per_admit", float64(combos)/n, "count")
	m.set("core.rung_prune_ratio", ratio(float64(pruned), float64(combos+pruned)), "ratio")
	if remote {
		d0, d1 := t.daemon0, t.daemon1
		m.set("core.analysis_s", d1.analysisS-d0.analysisS, "s")
		m.set("core.analyses", float64(d1.analyses-d0.analyses), "count")
		for _, op := range curveOps {
			m.set("curve."+op+"_s", d1.curveS[op]-d0.curveS[op], "s")
			m.set("curve."+op+"_calls", float64(d1.curveN[op]-d0.curveN[op]), "count")
		}
	} else {
		t.mu.Lock()
		m.set("core.analysis_s", t.analysisS, "s")
		m.set("core.analyses", float64(t.analyses), "count")
		for _, op := range curveOps {
			m.set("curve."+op+"_s", t.curveS[op], "s")
			m.set("curve."+op+"_calls", float64(t.curveN[op]), "count")
		}
		t.mu.Unlock()
	}

	// sim and pool: the revalidation passes.
	m.set("sim.replay_share", ratio((t.passTotal-t.passCover).Seconds(), t.passTotal.Seconds()), "ratio")
	t.poolMetrics(m)

	// runtime: the benchmark process over the churn phase.
	kop := float64(len(t.churn.ops)) / 1000
	if kop > 0 && t.rt0 != nil && t.rt1 != nil {
		m.set("runtime.gc_cycles_per_kop", float64(t.rt1[0].Value.Uint64()-t.rt0[0].Value.Uint64())/kop, "1/kop")
		m.set("runtime.alloc_mib_per_kop", float64(t.rt1[1].Value.Uint64()-t.rt0[1].Value.Uint64())/(1<<20)/kop, "MiB/kop")
		up, cnt := histDelta(t.rt0[2].Value.Float64Histogram(), t.rt1[2].Value.Float64Histogram())
		m.set("runtime.gc_pause_ms", histTotal(up, cnt, t.rt1[2].Value.Float64Histogram().Buckets[0])*1e3, "ms")
		up, cnt = histDelta(t.rt0[3].Value.Float64Histogram(), t.rt1[3].Value.Float64Histogram())
		m.set("runtime.sched_latency_p99_ms", histQuantile(up, cnt, 0.99)*1e3, "ms")
	}

	// The overhead ratio compares the workload's main rate: churn ops, or
	// revalidated flows on revalidate-sim, whose time is in the passes.
	rate := "ops_per_cpu_s"
	if t.o.workload == "revalidate-sim" {
		rate = "bulk_flows_per_cpu_s"
	}
	m.set("trace.overhead_ratio", ratio(out.e2e[rate].Value, untraced.e2e[rate].Value), "ratio")
	m.set("trace.spans", float64(t.spans), "count")
	out.fact("trace_spans_dropped", t.dropped)
	return t.writeTrace(out)
}

// recordSpans adds the server decision and its phases as children of the
// client op that caused them.
func (t *tracer) recordSpans(r admit.DecisionRecord, op opRecord) {
	start := r.Start
	if start.Before(op.start) {
		start = op.start
	}
	args := map[string]any{"flow_id": r.FlowID, "seq": r.Seq, "admitted": r.Admitted, "binding": r.Binding}
	t.span("decision", "server", tidClient, start, r.Total, args)
	at := start
	for _, p := range r.Phases {
		t.span(p.Phase, "phase", tidClient, at, p.Dur, map[string]any{"flow_id": r.FlowID})
		at = at.Add(p.Dur)
	}
}

// poolMetrics reads the revalidation pool telemetry.
func (t *tracer) poolMetrics(m metrics) {
	var tasks float64
	var taskB, waitB []obs.BucketSnapshot
	for _, f := range t.poolReg.Snapshot() {
		for _, s := range f.Series {
			switch f.Name {
			case "nc_pool_tasks_total":
				tasks += s.Value
			case "nc_pool_task_duration_seconds":
				taskB = s.Buckets
			case "nc_pool_queue_wait_seconds":
				waitB = s.Buckets
			}
		}
	}
	m.set("pool.tasks", tasks, "count")
	m.set("pool.task_p50_ms", bucketQuantile(taskB, 0.5)*1e3, "ms")
	m.set("pool.queue_wait_p50_ms", bucketQuantile(waitB, 0.5)*1e3, "ms")
}

func bucketQuantile(bs []obs.BucketSnapshot, q float64) float64 {
	if len(bs) == 0 {
		return 0
	}
	up := make([]float64, len(bs))
	cnt := make([]uint64, len(bs))
	for i, b := range bs {
		up[i], cnt[i] = b.UpperBound, b.Count
	}
	return histQuantile(up, cnt, q)
}

// writeTrace writes the spans as a Chrome trace under the work directory
// and validates the file the way nclint -trace does.
func (t *tracer) writeTrace(out *outcome) error {
	dir := filepath.Join(t.o.workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", t.o.workload, t.o.seed))
	if err := t.trace.WriteFile(path); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	err = obs.ValidateTraceBytes(data)
	out.check("trace_valid", err == nil, "%v", err)
	out.fact("trace_file", path)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func hitRatio(hits, misses uint64) float64 { return ratio(float64(hits), float64(hits+misses)) }
