package admit

// AdmitBatch decides a batch of candidate flows as one transaction (see
// txn.go), returning one verdict per input in order. Either the whole batch
// commits under a single feasibility check of the final state — one
// analysis per flow *class* rather than per flow, and a single epoch bump —
// or the largest prefix verified feasible commits, the first infeasible
// candidate is decided exactly as Admit would decide it on top of that
// prefix, and the remainder continues. Only verified states commit; in the
// model's non-monotone corners (see the job-aggregation cliff notes in the
// tests) the committed prefix may be smaller than what sequential admission
// would reach. This is the bulk-ramp path: populating a registry through
// AdmitBatch costs O(batches × classes) analyses instead of O(flows ×
// classes).
func (c *Controller) AdmitBatch(flows []Flow) []Verdict {
	tr := c.newTrace(KindBatch)
	out := make([]Verdict, len(flows))

	// Spec prechecks and intra-batch duplicate detection, outside the
	// registry lock.
	cands := make([]cand, 0, len(flows))
	seen := make(map[string]struct{}, len(flows))
	epoch := c.epoch.Load()
	for i, f := range flows {
		if v, bad := c.precheck(f, epoch); bad {
			out[i] = v
			continue
		}
		if _, dup := seen[f.ID]; dup {
			out[i] = Verdict{FlowID: f.ID, Epoch: epoch, Binding: "spec",
				Reason: "rejected: duplicate flow ID within batch"}
			continue
		}
		seen[f.ID] = struct{}{}
		cands = append(cands, cand{pos: i, f: f, key: c.keyFor(f)})
	}
	tr.mark(PhasePrecheck)

	c.txn(cands, out, false, tr)
	c.observeBatch(out, tr)
	return out
}

// observeBatch records one batch transaction on the attached telemetry
// sinks: per-verdict counters, a batch counter, a flight-recorder record,
// and a single audit line (per-flow audit at bulk-ramp rates would swamp
// the log).
func (c *Controller) observeBatch(out []Verdict, tr *decTrace) {
	if tr == nil {
		return
	}
	tr.mark(PhaseHandoff)
	took := tr.span.Total()
	admitted := 0
	for i := range out {
		if out[i].Admitted {
			admitted++
		}
	}
	rejected := len(out) - admitted
	tr.batchN, tr.batchAdm = len(out), admitted

	rec := tr.record(took)
	rec.Admitted = admitted > 0
	seq := c.pushRecord(rec)

	if m := c.obsm; m != nil {
		m.admitted.Add(uint64(admitted))
		m.rejected.Add(uint64(rejected))
		m.reg.Counter("nc_admit_batches_total", "batch admission transactions").Inc()
		m.observeDecisionLatency(took, seq, "")
	}
	if c.audit != nil {
		c.audit.Info("admit.batch",
			"flows", len(out),
			"admitted", admitted,
			"rejected", rejected,
			"decision_us", took.Microseconds(),
		)
	}
}
