package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/core"
	"streamcalc/internal/curve"
	"streamcalc/internal/load"
	"streamcalc/internal/units"
)

// fillResult is what one fill left in the registry.
type fillResult struct {
	offered, admitted, flows, classes int
}

// inprocWorkload describes one in-process workload: how to build and fill
// its controller, how many revalidation passes and churn ops to run.
type inprocWorkload struct {
	build  func(seed uint64) (*inputs, error)
	rung   core.Rung
	fills  int
	fill   func(c *admit.Controller, in *inputs) (fillResult, error)
	passes int // RevalidateAll passes
	ops    int // closed-loop churn ops
}

func tightCrossWorkload(seconds float64) inprocWorkload {
	return inprocWorkload{
		build:  tightCross,
		rung:   core.RungTight,
		fills:  tightFills,
		fill:   fillUntilTightestRejects,
		passes: tightPasses,
		ops:    opCount(tightOpsRate, seconds),
	}
}

func revalidateSimWorkload(seconds float64) inprocWorkload {
	return inprocWorkload{
		build: revalidateSim,
		rung:  core.RungBlind,
		fills: revalFills,
		fill: func(c *admit.Controller, in *inputs) (fillResult, error) {
			return fillBatches(c, in, revalFlows, revalBatch)
		},
		passes: max(3, int(revalPassShare*seconds/revalPassSec+0.5)),
		ops:    opCount(revalOpsRate, (1-revalPassShare)*seconds),
	}
}

// fillUntilTightestRejects registers tightBatchFill flows through batch
// transactions, then admits flows one at a time, in index order, until a
// flow of the tightest SLO tier is rejected.
func fillUntilTightestRejects(c *admit.Controller, in *inputs) (fillResult, error) {
	r, err := fillBatches(c, in, tightBatchFill, tightBatch)
	if err != nil {
		return r, err
	}
	tightest := in.tightestDelay()
	for ; r.offered < 4*tightFlows; r.offered++ {
		f := in.flow(r.offered)
		if c.Admit(f).Admitted {
			r.admitted++
			continue
		}
		if f.SLO.MaxDelay == tightest {
			r.offered++
			r.flows, r.classes = c.FlowCount(), c.ClassCount()
			return r, nil
		}
	}
	return r, fmt.Errorf("fill: tightest tier still admitted after %d flows (platform oversized)", r.offered)
}

// fillBatches registers flows through in-process AdmitBatch transactions of
// batch flows until want are admitted.
func fillBatches(c *admit.Controller, in *inputs, want, batch int) (fillResult, error) {
	var r fillResult
	for r.admitted < want {
		if r.offered >= 4*want {
			return r, fmt.Errorf("fill: only %d of %d flows admitted (platform undersized)", r.admitted, want)
		}
		for _, v := range c.AdmitBatch(in.flows(r.offered, r.offered+batch)) {
			if v.Admitted {
				r.admitted++
			}
		}
		r.offered += batch
	}
	r.flows, r.classes = c.FlowCount(), c.ClassCount()
	return r, nil
}

// runInproc runs an in-process workload: fills (the set-up, repeated on
// fresh controllers with a cold curve memo), revalidation passes with one
// pool worker, then the closed-loop churn.
func runInproc(w inprocWorkload, seed uint64, tr *tracer) (*outcome, error) {
	in, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	out := newOutcome()

	fills := w.fills
	if tr != nil {
		fills = 1
	}
	meter := cpuMeter{selfCPU}
	var c *admit.Controller
	var fr fillResult
	var setups, wallSetups []float64
	for k := 0; k < fills; k++ {
		curve.ResetMemo()
		runtime.GC()
		c0, err := meter.now()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		cc, err := controller(in.sc, w.rung)
		if err != nil {
			return nil, err
		}
		r, err := w.fill(cc, in)
		if err != nil {
			return nil, err
		}
		wallSetups = append(wallSetups, time.Since(t0).Seconds())
		c1, err := meter.now()
		if err != nil {
			return nil, err
		}
		setups = append(setups, (c1 - c0).Seconds())
		if k > 0 {
			out.check("fill_repeats", r == fr, "fill %d gave %+v, fill 0 gave %+v", k, r, fr)
		}
		c, fr = cc, r
	}
	out.attempted += fr.offered
	out.e2e.set("setup_s", median(setups), "s")
	out.fact("wall_setup_s", median(wallSetups))

	if tr != nil {
		tr.attachInproc(c)
	}

	// Revalidation passes with one pool worker. Every pass must return the
	// same report; the figure is the median pass rate.
	opt := admit.RevalidateOptions{
		Replay:  admit.ReplayOptions{Total: replayKiB * units.KiB, Seed: seed},
		Workers: 1,
	}
	if tr != nil {
		opt.Metrics = tr.poolReg
	}
	var first *admit.RevalidateReport
	var rates, wallRates []float64
	for p := 0; p < w.passes; p++ {
		if tr != nil {
			tr.beginPass()
		}
		c0, err := meter.now()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		rep, err := c.RevalidateAll(opt)
		d := time.Since(t0)
		if tr != nil {
			tr.endPass(t0, d)
		}
		if err != nil {
			return nil, err
		}
		c1, err := meter.now()
		if err != nil {
			return nil, err
		}
		out.attempted += len(rep.Flows)
		out.check("replay_violations", rep.Violations == 0, "pass %d: %d replay violations", p, rep.Violations)
		if first == nil {
			first = rep
		}
		out.check("passes_identical", reflect.DeepEqual(first, rep), "pass %d report differs from pass 0", p)
		rates = append(rates, float64(len(rep.Flows))/(c1-c0).Seconds())
		wallRates = append(wallRates, float64(len(rep.Flows))/d.Seconds())
	}
	out.e2e.set("bulk_flows_per_cpu_s", median(rates), "1/cpu_s")
	out.fact("wall_bulk_flows_per_s", median(wallRates))

	ops, err := in.ops(fr.offered, w.ops)
	if err != nil {
		return nil, err
	}
	target := load.InProc{C: c}
	var after func(int) error
	if tr != nil {
		tr.beginChurn(target)
		after = tr.afterOp
	}
	ch, err := runChurn(target, meter, ops, after)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.endChurn(ch); err != nil {
			return nil, err
		}
	}
	out.addChurn(ch)

	wantFlows := fr.admitted + ch.admitted - ch.released
	out.check("final_flows", c.FlowCount() == wantFlows,
		"controller holds %d flows, client accounting expects %d", c.FlowCount(), wantFlows)
	out.fact("admitted_flows", fr.admitted+ch.admitted)
	out.fact("final_flows", c.FlowCount())
	out.fact("classes", c.ClassCount())
	out.fact("fill_admitted", fr.admitted)
	out.fact("verdict_digest", fmt.Sprintf("%016x", ch.digest))
	out.e2e.set("admitted_flows", float64(fr.admitted+ch.admitted), "count")

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out.e2e.set("live_heap_mib", float64(m.HeapAlloc)/(1<<20), "MiB")
	runtime.KeepAlive(c)
	return out, nil
}
