package main

import (
	"strings"
	"testing"
)

func TestFactsDiffer(t *testing.T) {
	a := map[string]any{"admitted_flows": 141.0, "final_flows": 120.0, "classes": 8.0, "verdict_digest": "ab", "churn_misses": 3.0}
	b := map[string]any{"admitted_flows": 141.0, "final_flows": 120.0, "classes": 8.0, "verdict_digest": "ab", "churn_misses": 4.0}
	if d := factsDiffer(a, b); d != "" {
		t.Errorf("facts outside the repeat set should not count: %s", d)
	}
	b["admitted_flows"] = 140.0
	if d := factsDiffer(a, b); !strings.HasPrefix(d, "admitted_flows") {
		t.Errorf("factsDiffer = %q, want an admitted_flows difference", d)
	}
}

func TestOutcomeCorrect(t *testing.T) {
	o := newOutcome()
	o.check("x", true, "")
	if !o.correct() {
		t.Fatal("passing checks should be correct")
	}
	o.check("x", false, "broke at %d", 3)
	o.check("x", true, "")
	if o.correct() || o.checks[0].Detail != "broke at 3" {
		t.Errorf("a failed check must stick: %+v", o.checks)
	}
	o = newOutcome()
	o.failed = 1
	if o.correct() {
		t.Error("a failed operation makes the run incorrect")
	}
}

func TestOpCountIsDeterministic(t *testing.T) {
	if opCount(245, 12) != opCount(245, 12) || opCount(245, 12) != 2940 {
		t.Errorf("opCount(245, 12) = %d", opCount(245, 12))
	}
	if opCount(10, 1) != 200 {
		t.Errorf("opCount floor = %d, want 200", opCount(10, 1))
	}
}
