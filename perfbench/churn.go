package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"streamcalc/internal/gen"
	"streamcalc/internal/load"
)

// opRecord is one churn operation as the client saw it.
type opRecord struct {
	kind  gen.OpKind
	id    string
	start time.Time
	dur   time.Duration // wall time
	cpuAt time.Duration // meter reading when the op started
	cpu   time.Duration // CPU time the op took, client and program together
	ok    bool
}

// churnResult is the outcome of one closed-loop churn phase.
type churnResult struct {
	attempted, failed int
	// admitted counts admits granted, released releases that found their
	// flow; misses counts releases and rechecks whose planned target was
	// never admitted (a verdict of the fixed schedule, not a failure).
	admitted, released, misses int
	// digest fingerprints the verdict sequence: equal seeds must give
	// equal digests.
	digest uint64

	ops    []opRecord // every op, in order
	warm   int        // leading ops issued but not measured
	end    time.Time  // when the last reply arrived
	cpuEnd time.Duration
}

// churnWarmupShare is the leading share of ops issued but not measured.
const churnWarmupShare = 0.1

// churnSegments is how many consecutive slices the measured ops are cut
// into. Each figure is the median over the slices of that slice's figure,
// so a disturbance covering fewer than half of the slices does not move it.
const churnSegments = 8

// runChurn issues ops one at a time, each only after the previous reply
// (a single closed-loop lane), and takes the wall time and the meter's CPU
// time around every target call. after, when set, runs between ops
// (outside the op timings): the traced run polls decision records there.
func runChurn(t load.Target, meter cpuMeter, ops []gen.Op, after func(i int) error) (churnResult, error) {
	res := churnResult{ops: make([]opRecord, 0, len(ops)), warm: int(float64(len(ops)) * churnWarmupShare)}
	if len(ops)-res.warm < churnSegments {
		return res, fmt.Errorf("churn: %d ops are too few to measure", len(ops))
	}
	h := fnv.New64a()
	for _, op := range ops {
		var ok bool
		var err error
		id := op.ID
		c0, cerr := meter.now()
		if cerr != nil {
			return res, cerr
		}
		t0 := time.Now()
		switch op.Kind {
		case gen.OpAdmit:
			id = op.Flow.ID
			ok, err = t.Admit(op.Flow)
		case gen.OpRelease:
			ok, err = t.Release(op.ID)
		case gen.OpRecheck:
			ok, err = t.Recheck(op.ID)
		}
		d := time.Since(t0)
		c1, cerr := meter.now()
		if cerr != nil {
			return res, cerr
		}
		res.attempted++
		if err != nil {
			res.failed++
		}
		switch {
		case op.Kind == gen.OpAdmit && ok:
			res.admitted++
		case op.Kind == gen.OpRelease && ok:
			res.released++
		case op.Kind != gen.OpAdmit && !ok:
			res.misses++
		}
		v := byte(0)
		if ok {
			v = 1
		}
		h.Write([]byte{byte(op.Kind), v})
		res.ops = append(res.ops, opRecord{kind: op.Kind, id: id, start: t0, dur: d, cpuAt: c0, cpu: c1 - c0, ok: ok})
		if after != nil {
			if err := after(len(res.ops) - 1); err != nil {
				return res, err
			}
		}
	}
	res.end = time.Now()
	var err error
	if res.cpuEnd, err = meter.now(); err != nil {
		return res, err
	}
	res.digest = h.Sum64()
	return res, nil
}

// segmentFigures are one slice's churn figures.
type segmentFigures struct {
	opsPerCPU, opsPerWall           float64
	admitP50, admitP90              float64 // CPU ms
	releaseP50, recheckP50          float64 // CPU ms
	wallAdmitP50                    float64
	admits, releases, rechecks, ops int
}

// segments cuts the measured ops into churnSegments consecutive slices of
// equal op count. A slice spans from its first op's start to the next
// slice's first op (the end of the loop for the last slice), in CPU time
// and in wall time, so it includes whatever the loop did between ops.
func (r churnResult) segments() []segmentFigures {
	meas := r.ops[r.warm:]
	out := make([]segmentFigures, churnSegments)
	for j := range out {
		lo, hi := j*len(meas)/churnSegments, (j+1)*len(meas)/churnSegments
		end, cpuEnd := r.end, r.cpuEnd
		if hi < len(meas) {
			end, cpuEnd = meas[hi].start, meas[hi].cpuAt
		}
		cpu := map[gen.OpKind][]float64{}
		var wallAdmit []float64
		for _, op := range meas[lo:hi] {
			cpu[op.kind] = append(cpu[op.kind], ms1(op.cpu))
			if op.kind == gen.OpAdmit {
				wallAdmit = append(wallAdmit, ms1(op.dur))
			}
		}
		n := float64(hi - lo)
		out[j] = segmentFigures{
			opsPerCPU:    n / (cpuEnd - meas[lo].cpuAt).Seconds(),
			opsPerWall:   n / end.Sub(meas[lo].start).Seconds(),
			admitP50:     percentile(cpu[gen.OpAdmit], 50),
			admitP90:     percentile(cpu[gen.OpAdmit], 90),
			releaseP50:   percentile(cpu[gen.OpRelease], 50),
			recheckP50:   percentile(cpu[gen.OpRecheck], 50),
			wallAdmitP50: percentile(wallAdmit, 50),
			admits:       len(cpu[gen.OpAdmit]),
			releases:     len(cpu[gen.OpRelease]),
			rechecks:     len(cpu[gen.OpRecheck]),
			ops:          hi - lo,
		}
	}
	return out
}

// figure is the median over the slices of one slice figure.
func figure(segs []segmentFigures, f func(segmentFigures) float64) float64 {
	xs := make([]float64, len(segs))
	for i, s := range segs {
		xs[i] = f(s)
	}
	return median(xs)
}

// metrics renders the churn's end-to-end figures; wall-clock figures, which
// carry the host's steal, go to the facts.
func (r churnResult) metrics(m metrics, facts map[string]any) {
	segs := r.segments()
	m.set("ops_per_cpu_s", figure(segs, func(s segmentFigures) float64 { return s.opsPerCPU }), "1/cpu_s")
	m.set("admit_cpu_p50_ms", figure(segs, func(s segmentFigures) float64 { return s.admitP50 }), "cpu_ms")
	m.set("admit_cpu_p90_ms", figure(segs, func(s segmentFigures) float64 { return s.admitP90 }), "cpu_ms")
	m.set("release_cpu_p50_ms", figure(segs, func(s segmentFigures) float64 { return s.releaseP50 }), "cpu_ms")
	m.set("recheck_cpu_p50_ms", figure(segs, func(s segmentFigures) float64 { return s.recheckP50 }), "cpu_ms")
	facts["wall_ops_per_s"] = figure(segs, func(s segmentFigures) float64 { return s.opsPerWall })
	facts["wall_admit_p50_ms"] = figure(segs, func(s segmentFigures) float64 { return s.wallAdmitP50 })
	s := segs[0]
	facts["samples_per_segment"] = map[string]int{"ops": s.ops, "admit": s.admits, "release": s.releases, "recheck": s.rechecks}
}

// opCount scales a nominal closed-loop rate to a run of the given length.
func opCount(rate float64, seconds float64) int {
	n := int(rate * seconds)
	if n < 200 {
		n = 200
	}
	return n
}
