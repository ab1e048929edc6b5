package admit

import (
	"fmt"
	"sort"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/units"
)

// This file is the admission transaction engine. Admit, a combiner group
// and AdmitBatch are transactions of 1, k and n candidates over the same
// two pieces:
//
//   - evaluate: one feasibility check of a hypothetical registry (the live
//     classes plus added members). Each added class's own SLO is checked
//     first, then every registered class sharing a node with them, in
//     keyLess order; the result is per-class admitted verdict templates or
//     the first violated constraint with its exact reason.
//   - txn: the driver. Each round evaluates the whole remainder on one
//     read-locked snapshot; if it fails with more than one candidate, it
//     bisects for the largest feasible prefix and evaluates the boundary
//     candidate as a transaction of 1 on top of that prefix. A short
//     write-locked section then validates the pinned node epochs and
//     commits. A conflict retries the round, the last attempt under the
//     write lock. The boundary's rejection is replayed onto later members
//     of its class and the rest continue in the next round.
//
// Soundness rule: only analyzed states commit. A conflicted round
// re-analyzes at the new state; it never assumes the bounds are monotone in
// cross traffic.

// maxCommitRetries bounds the optimistic attempts of one round; the final
// attempt decides under the write lock, where state cannot move.
const maxCommitRetries = 3

// cand is one admission candidate that passed the spec prechecks: its
// position in the caller's verdict slice, spec, class key, and (once a
// round resolves it) standalone reservation.
type cand struct {
	pos     int
	f       Flow
	key     verdictKey
	contrib map[string]core.Bucket
}

// --- Hypothetical registry ----------------------------------------------------

// hypClass is one class of added members: the first member (spec and
// reservation), the member count, and the smallest member ID.
type hypClass struct {
	c     *cand
	n     int
	minID string
}

// hyp is a hypothetical registry: the live classes plus added members.
type hyp struct {
	keys  []verdictKey // added classes, keyLess order
	add   map[verdictKey]*hypClass
	extra *cand // the candidate of a transaction of 1, summed last
}

// noHyp adds nothing, so the same builders serve admitted-flow queries.
var noHyp = &hyp{}

// newHyp builds the hypothesis "cands join the registry plus base"; base is
// non-empty only when cands is a single candidate. The candidates of a
// transaction of k merge into the registry's sorted sum, and so do base
// members, which count as registered; the single candidate of a
// transaction of 1 is added after the sum. That order is part of the
// verdict contract, not a detail: the fifo rung's bounds can jump on a
// one-ulp change of a node's cross rate, so every summation order must stay
// fixed for a verdict to be reproducible.
func newHyp(base, cands []cand) *hyp {
	h := &hyp{add: make(map[verdictKey]*hypClass)}
	merged := cands
	if len(cands) == 1 {
		h.extra, merged = &cands[0], base
	}
	for i := range merged {
		cd := &merged[i]
		hc, ok := h.add[cd.key]
		if !ok {
			hc = &hypClass{c: cd, minID: cd.f.ID}
			h.add[cd.key] = hc
			h.keys = append(h.keys, cd.key)
		}
		hc.n++
		hc.minID = min(hc.minID, cd.f.ID)
	}
	sort.Slice(h.keys, func(i, j int) bool { return keyLess(h.keys[i], h.keys[j]) })
	return h
}

// aggregate sums the node's hosted reservations plus the merged added
// members in global keyLess order (a sorted merge), minus one member of
// class self when exclude is set — per class one multiply, so the cost is
// O(classes) and the result is a deterministic function of the
// hypothetical population. The extra candidate is not included. Callers
// hold the registry lock (either mode) or the shard lock.
func (h *hyp) aggregate(sh *shard, self verdictKey, exclude bool) core.Bucket {
	keys := h.keys
	var out core.Bucket
	i, j := 0, 0
	for i < len(sh.keys) || j < len(keys) {
		var k verdictKey
		var b core.Bucket
		n := 0
		takeShard := j >= len(keys) || (i < len(sh.keys) && !keyLess(keys[j], sh.keys[i]))
		takeAdd := i >= len(sh.keys) || (j < len(keys) && !keyLess(sh.keys[i], keys[j]))
		if takeShard {
			k = sh.keys[i]
			e := sh.classes[k]
			b, n = e.b, e.n
			i++
		}
		if takeAdd {
			k = keys[j]
			hc := h.add[k]
			if ab, hosted := hc.c.contrib[sh.node.Name]; hosted {
				b = ab // equals the shard entry's bucket when both exist
				n += hc.n
			}
			j++
		}
		if exclude && k == self {
			n--
		}
		if n > 0 {
			out.Rate += b.Rate * units.Rate(n)
			out.Burst += b.Burst * units.Bytes(n)
		}
	}
	return out
}

// pipeline builds the pipeline of one member of class self (arrival, path)
// over the hypothetical registry: each node's cross traffic is its static
// background plus every other member's reservation. isCand says the member
// is a candidate; with an extra candidate that member is the extra itself,
// otherwise one member of the merged class self is left out. The name is
// ID-independent so the analysis memo shares results across flows. Callers
// hold the registry lock.
func (h *hyp) pipeline(c *Controller, arrival core.Arrival, path []string, self verdictKey, isCand bool) core.Pipeline {
	extra := h.extra
	exclude := extra == nil || !isCand
	if isCand {
		extra = nil
	}
	p := core.Pipeline{Name: c.name + "/shared", Arrival: arrival, Rung: self.rung}
	for _, name := range path {
		sh := c.shards[name]
		n := sh.node
		agg := h.aggregate(sh, self, exclude)
		n.CrossRate += agg.Rate
		n.CrossBurst += agg.Burst
		if extra != nil {
			if b, ok := extra.contrib[name]; ok {
				n.CrossRate += b.Rate
				n.CrossBurst += b.Burst
			}
		}
		p.Nodes = append(p.Nodes, n)
	}
	return p
}

// ownPipeline builds f's pipeline under the live registry, f's own
// membership excluded when it is admitted. Callers hold the registry lock.
func (c *Controller) ownPipeline(f Flow) core.Pipeline {
	self := verdictKey{rung: c.rungFor(f)}
	if cs, ok := c.flows[f.ID]; ok {
		self = cs.key
	}
	return noHyp.pipeline(c, f.Arrival, f.Path, self, false)
}

// --- Evaluator ------------------------------------------------------------------

// evalResult is one feasibility check: ok with per-class admitted verdict
// templates (FlowID blank), or the first violated constraint in v.
type evalResult struct {
	ok   bool
	v    Verdict
	tmpl map[verdictKey]Verdict
}

// evaluate checks whether adding cands on top of the registry plus base
// keeps every SLO; base is non-empty only under a transaction of 1 (the
// boundary candidate on top of a verified prefix). Every node an analysis
// reads is pinned in sw; with reuse set, victim classes that passed in an
// earlier attempt of the same hypothesis and whose nodes have not moved are
// skipped (sw.victimOK). Rejection reasons never mention a candidate's ID:
// they are cached and replayed for any flow with the same curves, path, and
// SLO. Callers hold the registry lock (either mode); cands carry their
// reservations.
func (c *Controller) evaluate(base, cands []cand, sw *sweep, reuse bool, tr *decTrace) evalResult {
	h := newHyp(base, cands)
	own := []*cand{h.extra}
	if h.extra == nil {
		own = own[:0]
		for _, k := range h.keys {
			own = append(own, h.add[k].c)
		}
	}
	epoch := c.epoch.Load()
	phase := PhaseAnalysis
	reject := func(binding, format string, args ...any) evalResult {
		tr.mark(phase)
		return evalResult{v: Verdict{Epoch: epoch, Rung: cands[0].key.rung.String(), Binding: binding,
			Reason: "rejected: " + fmt.Sprintf(format, args...)}}
	}

	// Each added class's own SLO at the hypothetical state; the analyses
	// become the admitted verdict templates.
	res := evalResult{ok: true, tmpl: make(map[verdictKey]Verdict, len(own))}
	touched := make(map[string]struct{})
	for _, cd := range own {
		f := cd.f
		for _, name := range f.Path {
			touched[name] = struct{}{}
		}
		sw.addPath(c, f.Path)
		// Saturation (aggregate cross >= node rate) surfaces as an Analyze
		// validation error.
		a, err := core.AnalyzeMemo(h.pipeline(c, f.Arrival, f.Path, cd.key, true), c.memo)
		if err != nil {
			return reject("saturation", "%v", err)
		}
		tr.noteRungSearch(a.TightCombos, a.TightPruned)
		b := boundsOf(a)
		if bad := sloViolation(f.SLO, a, b); bad != nil {
			return reject(bad.binding, "%s", bad.detail)
		}
		res.tmpl[cd.key] = c.admittedVerdict(h, f, a, b, epoch)
	}
	tr.mark(PhaseAnalysis)
	phase = PhaseVictimSweep

	// Victims: every registered class (live, or added by base alongside an
	// extra candidate) sharing a node with an added class, re-checked at its
	// own admitted rung with one analysis per class (members are
	// interchangeable).
	hits := func(path []string) bool {
		for _, name := range path {
			if _, ok := touched[name]; ok {
				return true
			}
		}
		return false
	}
	var victims []verdictKey
	for k, cs := range c.classes {
		if hits(cs.path) {
			victims = append(victims, k)
		}
	}
	for _, k := range h.keys {
		if _, live := c.classes[k]; !live && h.extra != nil && hits(h.add[k].c.f.Path) {
			victims = append(victims, k)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return keyLess(victims[i], victims[j]) })
	for _, k := range victims {
		var arrival core.Arrival
		var path []string
		var slo SLO
		name := ""
		if cs, ok := c.classes[k]; ok {
			arrival, path, slo, name = cs.arrival, cs.path, cs.slo, cs.representative()
		}
		if hc, ok := h.add[k]; ok && h.extra != nil {
			if name == "" {
				arrival, path, slo, name = hc.c.f.Arrival, hc.c.f.Path, hc.c.f.SLO, hc.minID
			}
			name = min(name, hc.minID)
		}
		if reuse && sw.victimOK(c, k, path) {
			tr.noteReuse()
			continue
		}
		tr.noteVictim()
		sw.addPath(c, path)
		a, err := core.AnalyzeMemo(h.pipeline(c, arrival, path, k, false), c.memo)
		if err != nil {
			return reject("victim:"+name, "admitting this flow would starve flow %q: %v", name, err)
		}
		tr.noteRungSearch(a.TightCombos, a.TightPruned)
		if bad := sloViolation(slo, a, boundsOf(a)); bad != nil {
			return reject("victim:"+name, "admitting this flow would break flow %q: %s", name, bad.detail)
		}
		if reuse {
			sw.recordVictim(c, k, path)
		}
	}
	tr.mark(PhaseVictimSweep)
	return res
}

// admittedVerdict is the verdict template for an added class that keeps
// its SLO: the promised bounds, the bottleneck, and the residual headroom
// there with every hypothetical member counted.
func (c *Controller) admittedVerdict(h *hyp, f Flow, a *core.Analysis, b bounds, epoch uint64) Verdict {
	bn := f.Path[a.BottleneckIndex]
	sh := c.shards[bn]
	v := Verdict{Admitted: true, Epoch: epoch, Rung: a.Rung.String(),
		Delay: b.delay, Backlog: b.backlog, Throughput: b.throughput, Bottleneck: bn,
		HeadroomRate: sh.node.Rate - sh.node.CrossRate - h.aggregate(sh, verdictKey{}, false).Rate}
	if h.extra != nil {
		v.HeadroomRate -= h.extra.contrib[bn].Rate
	}
	v.Reason = fmt.Sprintf("admitted: delay %v <= %s, backlog %v <= %s, throughput %v >= %s; bottleneck %s",
		b.delay, orAny(f.SLO.MaxDelay > 0, f.SLO.MaxDelay),
		b.backlog, orAny(f.SLO.MaxBacklog > 0, f.SLO.MaxBacklog),
		b.throughput, orAny(f.SLO.MinThroughput > 0, f.SLO.MinThroughput), bn)
	return v
}

// orAny renders an SLO field, or "(any)" when unconstrained.
func orAny(constrained bool, v any) string {
	if !constrained {
		return "(any)"
	}
	return fmt.Sprint(v)
}

// --- Driver -----------------------------------------------------------------------

// plan is one round's decision on a consistent snapshot: the candidates
// that reached analysis, how many of them (a prefix) commit under their
// class templates, and the verdict of the boundary candidate after the
// prefix, if any.
type plan struct {
	live []cand
	lo   int
	tmpl map[verdictKey]Verdict
	bv   Verdict
	dups []string // IDs rejected as already admitted
	next []cand   // candidates left for the next round, set by apply
}

// txn decides cands as one transaction, writing each verdict to
// out[cand.pos]. With cache set, rejections decided as a transaction of 1
// enter the verdict cache pinned to the node epochs their analysis read.
func (c *Controller) txn(cands []cand, out []Verdict, cache bool, tr *decTrace) {
	for len(cands) > 0 {
		cands = c.round(cands, out, cache, tr)
	}
}

// round runs one snapshot-evaluate-commit cycle over rem, writes the
// verdicts it settles into out, and returns the candidates left for the
// next round.
func (c *Controller) round(rem []cand, out []Verdict, cache bool, tr *decTrace) []cand {
	sw := &sweep{victims: make(map[verdictKey]pins)}
	var pl *plan
	for attempt := 0; ; attempt++ {
		// Each attempt pins epochs afresh; victim results persist so
		// unchanged classes can be reused.
		sw.deps = make(pins)
		if attempt == maxCommitRetries {
			pl = c.planLocked(rem, sw, out, tr)
			tr.mark(PhaseFallback)
			break
		}
		pl = c.planRead(rem, sw, out, tr)
		if pl.lo == 0 && !pl.bv.Admitted { // nothing to commit
			c.apply(pl, out)
			break
		}
		if c.validateApply(pl, sw, out) {
			tr.mark(PhaseValidateCommit)
			break
		}
		c.noteConflict()
		tr.mark(PhaseRetry)
	}
	tr.setDeps(c, sw)
	if cache && pl.lo == 0 && len(pl.live) > 0 && !pl.bv.Admitted {
		c.storeVerdict(pl.live[0].key, sw.deps, pl.bv)
	}
	return pl.next
}

// planRead plans a round under the registry read lock.
func (c *Controller) planRead(rem []cand, sw *sweep, out []Verdict, tr *decTrace) *plan {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.plan(rem, sw, out, tr)
}

// planLocked plans and applies a round under the registry write lock,
// where state cannot move between analysis and commit.
func (c *Controller) planLocked(rem []cand, sw *sweep, out []Verdict, tr *decTrace) *plan {
	defer c.writeLock()()
	pl := c.plan(rem, sw, out, tr)
	c.apply(pl, out)
	return pl
}

// validateApply applies pl under the registry write lock if no node epoch
// its analyses pinned has moved and no candidate's registration changed: a
// candidate's ID appearing, or a snapshot-time duplicate vanishing,
// invalidates the snapshot's verdicts.
func (c *Controller) validateApply(pl *plan, sw *sweep, out []Verdict) bool {
	defer c.writeLock()()
	if !sw.deps.current(c) {
		return false
	}
	for _, cd := range pl.live {
		if _, reg := c.flows[cd.f.ID]; reg {
			return false
		}
	}
	for _, id := range pl.dups {
		if _, reg := c.flows[id]; !reg {
			return false
		}
	}
	c.apply(pl, out)
	return true
}

// writeLock takes the registry write lock and returns its release, which
// also records how long the section took from the lock request on.
func (c *Controller) writeLock() func() {
	start := time.Now()
	c.mu.Lock()
	return func() {
		c.mu.Unlock()
		c.observeCommitWait(time.Since(start))
	}
}

// plan evaluates rem on the current snapshot, writing the rejections that
// need no analysis straight into out. Callers hold the registry lock
// (either mode).
func (c *Controller) plan(rem []cand, sw *sweep, out []Verdict, tr *decTrace) *plan {
	pl := &plan{live: make([]cand, 0, len(rem))}
	epoch := c.epoch.Load()
	for _, cd := range rem {
		var reason string
		if _, dup := c.flows[cd.f.ID]; dup {
			reason = fmt.Sprintf("flow %q is already admitted", cd.f.ID)
			pl.dups = append(pl.dups, cd.f.ID)
		} else if contrib, err := c.reservationFor(cd); err != nil {
			// Standalone reservations depend only on the pristine platform,
			// so this is a spec error whatever the registry holds.
			reason = err.Error()
		} else {
			cd.contrib = contrib
			pl.live = append(pl.live, cd)
			continue
		}
		out[cd.pos] = Verdict{FlowID: cd.f.ID, Epoch: epoch, Rung: cd.key.rung.String(),
			Binding: "spec", Reason: "rejected: " + reason}
	}
	live := pl.live
	if len(live) == 0 {
		return pl
	}
	// Victim results carry over between attempts only for a transaction of
	// 1, whose hypothesis is the same in every attempt.
	r := c.evaluate(nil, live, sw, len(rem) == 1, tr)
	if r.ok {
		pl.lo, pl.tmpl = len(live), r.tmpl
		return pl
	}
	if len(live) > 1 {
		// Largest verified prefix: lo always passed, hi always failed.
		hi := len(live)
		for pl.lo+1 < hi {
			mid := (pl.lo + hi) / 2
			if p := c.evaluate(nil, live[:mid], sw, false, tr); p.ok {
				pl.lo, pl.tmpl = mid, p.tmpl
			} else {
				hi = mid
			}
		}
		// The boundary as a transaction of 1 on top of the prefix names its
		// binding constraint (or, in the model's non-monotone corners,
		// admits after all).
		r = c.evaluate(live[:pl.lo], live[pl.lo:pl.lo+1], sw, false, tr)
	}
	pl.bv = r.v
	if r.ok {
		pl.bv = r.tmpl[live[pl.lo].key]
	}
	return pl
}

// apply writes the plan's verdicts and commits its admissions: the prefix
// as one epoch step, then an admitted boundary as another. The boundary
// verdict carries the epoch after the prefix commit. Its rejection is
// replayed, marked Cached and with that same epoch, onto later members of
// its class: it reports the boundary decision, not a fresh analysis at the
// state those members would meet after further commits in this
// transaction. The remaining candidates go to pl.next. Callers hold the
// registry write lock whenever the plan commits.
func (c *Controller) apply(pl *plan, out []Verdict) {
	for _, cd := range pl.live[:pl.lo] {
		v := pl.tmpl[cd.key]
		v.FlowID = cd.f.ID
		out[cd.pos] = v
		c.commit(cd, v)
	}
	if pl.lo > 0 {
		c.epoch.Add(1)
	}
	if pl.lo == len(pl.live) {
		return
	}
	bd := pl.live[pl.lo]
	v := pl.bv
	if pl.lo > 0 {
		v.Epoch = c.epoch.Load()
	}
	v.FlowID = bd.f.ID
	out[bd.pos] = v
	if v.Admitted {
		c.commit(bd, v)
		c.epoch.Add(1)
	}
	for _, cd := range pl.live[pl.lo+1:] {
		if !v.Admitted && cd.key == bd.key {
			v.FlowID, v.Cached = cd.f.ID, true
			out[cd.pos] = v
			continue
		}
		pl.next = append(pl.next, cd)
	}
}
