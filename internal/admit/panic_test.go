package admit

import (
	"testing"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/units"
)

// A panicking analysis must not wedge the controller: every registry and
// leadership lock is released by defer, so once the panic is recovered the
// next Admit, Release and AdmitBatch still complete. (A panic while a
// leader decides a combiner group can still strand the group's other
// tickets; that waits on analyses never panicking.)
func TestAnalysisPanicDoesNotWedge(t *testing.T) {
	c := testPlatform(t)
	prev := core.SetAnalysisTimer(func(float64) { panic("analysis timer panic") })
	restored := false
	restore := func() {
		if !restored {
			core.SetAnalysisTimer(prev)
			restored = true
		}
	}
	defer restore()

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: the panicking analysis did not surface", name)
			}
		}()
		fn()
	}
	mustPanic("Admit", func() { c.Admit(tenant("p1", units.MiBPerSec)) })
	mustPanic("AdmitBatch", func() { c.AdmitBatch([]Flow{tenant("p2", units.MiBPerSec)}) })
	restore()

	within := func(name string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not finish within 5s: the controller is wedged", name)
		}
	}
	within("Admit", func() {
		if v := c.Admit(tenant("a1", units.MiBPerSec)); !v.Admitted {
			t.Errorf("admit after panic rejected: %s", v.Reason)
		}
	})
	within("Release", func() {
		if !c.Release("a1") {
			t.Error("release after panic failed")
		}
	})
	within("AdmitBatch", func() {
		for _, v := range c.AdmitBatch([]Flow{tenant("b1", units.MiBPerSec), tenant("b2", units.MiBPerSec)}) {
			if !v.Admitted {
				t.Errorf("batch admit after panic rejected %s: %s", v.FlowID, v.Reason)
			}
		}
	})
}
