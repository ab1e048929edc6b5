package main

import (
	"strings"
	"sync"
	"testing"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/obs"
)

func TestReconcileAddsUp(t *testing.T) {
	r := admit.DecisionRecord{
		Total: 5 * time.Millisecond,
		Phases: []obs.PhaseDur{
			{Phase: "precheck", Dur: 100 * time.Microsecond},
			{Phase: "victim_sweep", Dur: 4800 * time.Microsecond},
		},
	}
	rc := reconcile(6*time.Millisecond, r)
	if rc.transport != time.Millisecond {
		t.Errorf("transport = %v, want 1ms (client minus server total)", rc.transport)
	}
	if rc.phases != 4900*time.Microsecond || rc.unattributed != 100*time.Microsecond {
		t.Errorf("phases %v unattributed %v, want 4.9ms and 0.1ms", rc.phases, rc.unattributed)
	}
	if rc.transport+rc.phases+rc.unattributed != rc.client {
		t.Errorf("layers do not add up to the client latency: %+v", rc)
	}
}

func recs(seqs ...uint64) []admit.DecisionRecord {
	out := make([]admit.DecisionRecord, len(seqs))
	for i, s := range seqs {
		out[i] = admit.DecisionRecord{Seq: s}
	}
	return out
}

func TestNewRecordsKeepsFreshInOrder(t *testing.T) {
	// Newest first, as the recorder returns them; 10 was seen already.
	fresh, last, err := newRecords(recs(13, 12, 11, 10, 9), 10)
	if err != nil {
		t.Fatal(err)
	}
	if last != 13 || len(fresh) != 3 || fresh[0].Seq != 11 || fresh[2].Seq != 13 {
		t.Errorf("fresh %v last %d", fresh, last)
	}
	fresh, last, err = newRecords(recs(10, 9), 10)
	if err != nil || fresh != nil || last != 10 {
		t.Errorf("no new records: fresh %v last %d err %v", fresh, last, err)
	}
}

func TestNewRecordsDetectsRingWrap(t *testing.T) {
	// Records 11 and 12 were overwritten before the poll.
	_, last, err := newRecords(recs(15, 14, 13), 10)
	if err == nil || !strings.Contains(err.Error(), "wrapped") {
		t.Fatalf("want a ring-wrap error, got %v", err)
	}
	if last != 10 {
		t.Errorf("last advanced to %d on a gap", last)
	}
}

func TestCoveredUnionsNestedAndOverlapping(t *testing.T) {
	ivs := []interval{
		{10, 20}, {12, 15}, // nested: an op inside an analysis
		{18, 30},  // overlapping
		{40, 50},  // disjoint
		{95, 120}, // clipped at hi
		{-5, 2},   // clipped at lo
	}
	if got := covered(ivs, 0, 100); got != 20+10+5+2 {
		t.Errorf("covered = %d, want 37", got)
	}
	if got := covered(nil, 0, 100); got != 0 {
		t.Errorf("covered(nil) = %d", got)
	}
}

func TestHitRatio(t *testing.T) {
	if got := hitRatio(3, 1); got != 0.75 {
		t.Errorf("hitRatio = %v", got)
	}
	if got := hitRatio(0, 0); got != 0 {
		t.Errorf("hitRatio of nothing = %v", got)
	}
}

// The curve and analysis hooks fire from the lattice search's pool workers
// and the revalidation worker at once.
func TestTracerHooksConcurrent(t *testing.T) {
	tr := newTracer(options{workload: "tight-cross"})
	tr.beginPass()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.onCurve("convolve", 1e-6)
				tr.onAnalysis(2e-6)
			}
		}()
	}
	wg.Wait()
	tr.endPass(time.Now().Add(-time.Second), time.Second)
	if tr.curveN["convolve"] != 2000 || tr.analyses != 2000 {
		t.Errorf("counted %d curve ops and %d analyses, want 2000 each", tr.curveN["convolve"], tr.analyses)
	}
	if tr.passCover <= 0 || tr.passCover > time.Second {
		t.Errorf("pass cover %v outside (0, 1s]", tr.passCover)
	}
}
