package admit

// This file holds the engine's concurrency support: the dependency tracker
// of one analysis attempt (sweep) and the group-commit combiner
// (ticket/submit/drain).

// --- Dependency tracking ----------------------------------------------------

// sweep records the epoch of every node one analysis attempt read (the
// added classes' paths plus every analyzed victim class's path), so the
// commit section can validate that exactly that state is still current and
// every cached rejection stays pinned to it. Its per-victim snapshots let a
// conflict retry skip classes whose node epochs never moved.
type sweep struct {
	deps    pins                // every node read this attempt
	victims map[verdictKey]pins // passing victim class -> its path's epochs
}

// addPath pins the current epoch of every node on path (first observation
// wins; epochs cannot move while the registry lock is held in any mode).
func (sw *sweep) addPath(c *Controller, path []string) {
	for _, name := range path {
		sh := c.shards[name]
		if _, ok := sw.deps[sh.idx]; !ok {
			sw.deps[sh.idx] = sh.epoch.Load()
		}
	}
}

// victimOK reports whether class k passed the victim check on a previous
// attempt AND none of its path nodes changed since — in which case the
// prior analysis still holds, its dependencies are merged into the current
// attempt, and the class can be skipped. This is what restricts a retry
// sweep to the classes whose aggregates actually changed.
func (sw *sweep) victimOK(c *Controller, k verdictKey, path []string) bool {
	p, ok := sw.victims[k]
	if !ok || !p.current(c) {
		delete(sw.victims, k)
		return false
	}
	sw.addPath(c, path) // unchanged epochs: recording current == recorded
	return true
}

// recordVictim stores a passing victim check with its path's epochs; the
// caller has already pinned the path in the attempt's dependency set.
func (sw *sweep) recordVictim(c *Controller, k verdictKey, path []string) {
	p := make(pins, len(path))
	for _, name := range path {
		idx := c.shards[name].idx
		p[idx] = sw.deps[idx]
	}
	sw.victims[k] = p
}

// --- Group-commit combiner --------------------------------------------------
//
// Concurrent Admit/Release callers enqueue tickets; one caller at a time
// becomes the leader (leaderSem), takes one snapshot of the queue, commits
// its releases first, and decides its admissions as one transaction. A
// group of k admissions costs one victim sweep, so k concurrent clients
// amortize the sweep k ways.

// ticket is one queued Admit (f, key) or Release (rel, id) awaiting the
// combiner. tr (nil when uninstrumented) is written by the submitter before
// enqueue, by the leader while the ticket is being decided, and by the
// submitter again after the done receive — each handoff channel- or
// mutex-synchronized.
type ticket struct {
	f    Flow
	key  verdictKey
	rel  bool
	id   string
	tr   *decTrace
	done chan ticketResult
}

type ticketResult struct {
	v  Verdict // admissions
	ok bool    // releases
}

// submit enqueues t and waits for its result, volunteering as the combiner
// leader whenever leadership is free. An uncontended caller becomes the
// leader immediately and decides its own ticket; under contention, waiting
// callers' tickets accumulate and the next leader decides them as a group.
func (c *Controller) submit(t *ticket) ticketResult {
	t.done = make(chan ticketResult, 1)
	c.enqueue(t)
	for {
		select {
		case r := <-t.done:
			return r
		default:
		}
		select {
		case r := <-t.done:
			return r
		case c.leaderSem <- struct{}{}:
			if !c.drain() {
				// An earlier leader took t: its verdict is in t.done, or that
				// leader panicked and t blocks here instead of spinning.
				return <-t.done
			}
		}
	}
}

// drain decides one snapshot of the queue, reporting whether it was
// non-empty, and hands leadership back: a leader whose own ticket is done
// never serves later arrivals. Only the holder of leaderSem runs it; the
// deferred release frees leadership even when a decision panics.
func (c *Controller) drain() bool {
	defer func() { <-c.leaderSem }()
	q := c.takeQueue()
	if len(q) > 0 {
		c.processGroup(q)
	}
	return len(q) > 0
}

func (c *Controller) enqueue(t *ticket) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	c.queue = append(c.queue, t)
}

func (c *Controller) takeQueue() []*ticket {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	q := c.queue
	c.queue = nil
	return q
}

// processGroup decides one drained batch of tickets: releases first (so
// admissions see the freshest state and releases never conflict with a
// sweep in flight), then the admissions as one transaction. Duplicate IDs
// within the group follow as transactions of 1, since their verdict depends
// on what happened to the first occurrence.
func (c *Controller) processGroup(q []*ticket) {
	var rel, adm []*ticket
	for _, t := range q {
		// The leader owns every drained ticket's trace from here until the
		// done send; everything since the submitter's last mark is combiner
		// queue wait.
		t.tr.mark(PhaseQueueWait)
		if t.rel {
			rel = append(rel, t)
		} else {
			adm = append(adm, t)
		}
	}
	if len(rel) > 0 {
		c.releaseAll(rel)
		// Admissions waited for the release drain; charge them that window.
		for _, t := range adm {
			t.tr.mark(PhaseDrain)
		}
	}
	if len(adm) == 0 {
		return
	}
	if m := c.obsm; m != nil {
		m.groupSize.Observe(float64(len(adm)))
	}
	var uniq, dups []*ticket
	seen := make(map[string]struct{}, len(adm))
	for _, t := range adm {
		t.tr.noteGroup(len(adm))
		if _, dup := seen[t.f.ID]; dup {
			dups = append(dups, t)
			continue
		}
		seen[t.f.ID] = struct{}{}
		uniq = append(uniq, t)
	}
	c.admitTickets(uniq)
	for _, t := range dups {
		c.admitTickets([]*ticket{t})
	}
}

// releaseAll commits queued releases under one write-locked section.
func (c *Controller) releaseAll(ts []*ticket) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range ts {
		ok := c.releaseLocked(t.id)
		t.tr.mark(PhaseValidateCommit)
		t.done <- ticketResult{ok: ok}
	}
}

// admitTickets decides ts as one transaction and delivers each verdict. A
// group's shared work is recorded on a group trace and folded into every
// ticket's own trace at delivery, so per-decision records carry the real
// phase costs. A panic in the decision strands the group's other tickets
// (analyses are expected not to panic).
func (c *Controller) admitTickets(ts []*ticket) {
	cands := make([]cand, len(ts))
	for i, t := range ts {
		cands[i] = cand{pos: i, f: t.f, key: t.key}
	}
	tr := ts[0].tr
	if len(ts) > 1 {
		tr = c.newTrace(KindAdmit)
	}
	out := make([]Verdict, len(ts))
	c.txn(cands, out, true, tr)
	for i, t := range ts {
		if len(ts) > 1 {
			t.tr.absorb(tr)
		}
		t.done <- ticketResult{v: out[i]}
	}
}
