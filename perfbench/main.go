// Command perfbench is the admission system's benchmark: one command that
// runs a named workload against the real program, checks its outputs, and
// prints every end-to-end metric by name with its unit (or, with --trace 1,
// the per-layer split of the same workload).
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload churn-http --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload tight-cross --seed 1 --seconds 20 --trace 1
//	bash perfbench/run.sh --workload all --steady 10 --seed 1 --seconds 20
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it records the
// provenance (git SHA, CPU, nproc, GOMAXPROCS, Go version, command, seed),
// the correctness checks and the counts that must repeat for a seed.
// README.md in this directory explains the workloads and the layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// workloads lists the benchmark's workloads in reporting order.
var workloads = []string{"churn-http", "tight-cross", "revalidate-sim"}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// check is one correctness assertion of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is everything one workload run produced.
type outcome struct {
	attempted, failed int
	checks            []check
	e2e, layers       metrics
	facts             map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: metrics{}, layers: metrics{}, facts: map[string]any{}}
}

// check records an assertion; repeated names keep the first failure.
func (o *outcome) check(name string, ok bool, format string, args ...any) {
	for i, c := range o.checks {
		if c.Name == name {
			if c.OK && !ok {
				o.checks[i] = check{Name: name, Detail: fmt.Sprintf(format, args...)}
			}
			return
		}
	}
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
}

func (o *outcome) fact(name string, v any) { o.facts[name] = v }

// addChurn folds a churn phase into the outcome.
func (o *outcome) addChurn(ch churnResult) {
	o.attempted += ch.attempted
	o.failed += ch.failed
	ch.metrics(o.e2e, o.facts)
	o.fact("churn_ops", ch.attempted)
	o.fact("churn_misses", ch.misses)
}

func (o *outcome) correct() bool {
	if o.failed > 0 {
		return false
	}
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// result is the final line's schema.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	steady   int
	daemon   string
	workDir  string
	gitSHA   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", ")+" (or all with --steady)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same platform, flows and op sequence")
	flag.Float64Var(&o.seconds, "seconds", 20, "nominal measured seconds per run; op counts scale with it")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.IntVar(&o.steady, "steady", 0, "run each workload this many times with seeds seed, seed+1, ... and print each metric's median, quartiles and spread")
	flag.StringVar(&o.daemon, "daemon", ".bench_build/bin/ncadmitd", "ncadmitd binary for churn-http")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/run", "scratch directory for platform files and traces")
	flag.StringVar(&o.gitSHA, "git-sha", "unknown", "commit the binaries were built from")
	flag.Parse()
	o.trace = trace == 1

	if o.steady > 0 {
		if err := runSteady(o); err != nil {
			fail(err)
		}
		return
	}
	if !known(o.workload) {
		fail(fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloads, ", ")))
	}
	if o.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be > 0"))
	}
	out, err := runWorkload(o)
	if err != nil {
		fail(err)
	}
	emit(o, out)
}

func known(w string) bool {
	for _, n := range workloads {
		if n == w {
			return true
		}
	}
	return false
}

// runWorkload runs one workload, traced or not. The traced variant first
// runs the workload untraced from a fresh start, so trace.overhead_ratio
// compares two runs of the same inputs in one process.
func runWorkload(o options) (*outcome, error) {
	run := func(tr *tracer) (*outcome, error) {
		switch o.workload {
		case "churn-http":
			return runChurnHTTP(o, tr)
		case "tight-cross":
			return runInproc(tightCrossWorkload(o.seconds), o.seed, tr)
		default:
			return runInproc(revalidateSimWorkload(o.seconds), o.seed, tr)
		}
	}
	if !o.trace {
		return run(nil)
	}
	base, err := run(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(o)
	out, err := run(tr)
	tr.detach()
	if err != nil {
		return nil, err
	}
	if err := tr.finish(out, base); err != nil {
		return nil, err
	}
	return out, nil
}

// emit prints the provenance line, a human-readable table on stderr, and the
// result line.
func emit(o options, out *outcome) {
	ms := out.e2e
	if o.trace {
		ms = out.layers
	}
	info := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"provenance": provenance(o),
		"checks":     out.checks,
		"facts":      out.facts,
	}
	line, _ := json.Marshal(info)
	fmt.Println(string(line))

	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench: %-40s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, c := range out.checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	res, _ := json.Marshal(result{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed, Metrics: ms})
	fmt.Println(string(res))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
