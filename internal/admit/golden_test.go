package admit_test

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"streamcalc/internal/admit"
	"streamcalc/internal/core"
	"streamcalc/internal/gen"
	"streamcalc/internal/load"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_verdicts.txt.gz from the current admission engine")

const (
	goldenFile  = "testdata/golden_verdicts.txt.gz"
	goldenFlows = 2000
	goldenBatch = 256
	goldenOps   = 600
)

// goldenCase is one differential input: the default streaming scenario
// sized to goldenFlows at a headroom, decided at one analysis rung under
// one population seed.
type goldenCase struct {
	headroom float64
	rung     core.Rung
	seed     uint64
}

func (gc goldenCase) String() string {
	return fmt.Sprintf("headroom=%g rung=%s seed=%d", gc.headroom, gc.rung, gc.seed)
}

// goldenCases covers a scarce (0.5) and an ample (2.0) platform at the
// blind and fifo rungs. The tight rung is left out: sequential Admit of
// this population at the tight rung can panic inside ConvolveExact
// ("downward jump", a sub-tolerance float dip in the exact kernel), which
// is a separate robustness defect. rung_test.go and the benchmark's
// tight-cross workload keep the tight rung covered.
func goldenCases() []goldenCase {
	var out []goldenCase
	for _, h := range []float64{0.5, 2.0} {
		for _, r := range []core.Rung{core.RungBlind, core.RungFIFO} {
			for seed := uint64(1); seed <= 3; seed++ {
				out = append(out, goldenCase{headroom: h, rung: r, seed: seed})
			}
		}
	}
	return out
}

// goldenLine renders the verdict fields the differential compares, tab
// separated: op, flow ID, admitted, binding, delay (ns), backlog,
// throughput, bottleneck, epoch, cached, headroom rate. Floats use the
// shortest exact round-trip form.
func goldenLine(op string, v admit.Verdict) string {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return strings.Join([]string{
		op, v.FlowID, strconv.FormatBool(v.Admitted), v.Binding,
		strconv.FormatInt(int64(v.Delay), 10), g(float64(v.Backlog)), g(float64(v.Throughput)),
		v.Bottleneck, strconv.FormatUint(v.Epoch, 10), strconv.FormatBool(v.Cached),
		g(float64(v.HeadroomRate)),
	}, "\t")
}

// goldenRun drives one case: an AdmitBatch ramp of goldenFlows in
// goldenBatch-flow batches, then goldenOps planned Admit/Release/Recheck
// operations issued one at a time. It returns one line per outcome.
func goldenRun(t *testing.T, gc goldenCase) []string {
	t.Helper()
	sc := load.DefaultScenario(goldenFlows)
	pop, err := gen.NewPopulation(sc.Spec, gc.seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sc.Sized(pop, goldenFlows, gc.headroom).Controller()
	if err != nil {
		t.Fatal(err)
	}
	c.SetRung(gc.rung)

	var lines []string
	for lo := 0; lo < goldenFlows; lo += goldenBatch {
		hi := min(lo+goldenBatch, goldenFlows)
		for _, v := range c.AdmitBatch(pop.Flows(lo, hi)) {
			lines = append(lines, goldenLine("batch", v))
		}
	}
	for _, op := range pop.PlanOps(goldenFlows, goldenOps) {
		switch op.Kind {
		case gen.OpAdmit:
			lines = append(lines, goldenLine("admit", c.Admit(op.Flow)))
		case gen.OpRelease:
			lines = append(lines, "release\t"+op.ID+"\t"+strconv.FormatBool(c.Release(op.ID)))
		case gen.OpRecheck:
			v, err := c.Recheck(op.ID)
			if err != nil {
				lines = append(lines, "recheck\t"+op.ID+"\tmissing")
				continue
			}
			lines = append(lines, goldenLine("recheck", v))
		}
	}
	return lines
}

// TestGoldenVerdicts is the verdict-for-verdict differential of the
// admission engine: every case's outcome sequence must match the committed
// golden file field for field. HeadroomRate alone is compared to a relative
// 1e-9, since its summation order is not part of the contract. Regenerate
// with -update-golden only when a verdict change is intended.
func TestGoldenVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("golden differential is long")
	}
	cases := goldenCases()
	if raceEnabled && !*updateGolden {
		// Seed 1 of every (headroom, rung) pair keeps the race run short.
		var seed1 []goldenCase
		for _, gc := range cases {
			if gc.seed == 1 {
				seed1 = append(seed1, gc)
			}
		}
		cases = seed1
	}
	got := make(map[string][]string)
	for _, gc := range cases {
		got[gc.String()] = goldenRun(t, gc)
	}
	if *updateGolden {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	for _, gc := range cases {
		name := gc.String()
		g, w := got[name], want[name]
		if len(g) != len(w) {
			t.Errorf("%s: %d outcomes, golden has %d", name, len(g), len(w))
		}
		bad := 0
		for i := 0; i < min(len(g), len(w)); i++ {
			if !goldenEqual(g[i], w[i]) {
				if bad < 5 {
					t.Errorf("%s: outcome %d differs\n got: %s\nwant: %s", name, i, g[i], w[i])
				}
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d outcomes differ", name, bad, len(w))
		}
	}
}

// goldenEqual compares two outcome lines: every field exactly except the
// trailing headroom rate of verdict lines, which is compared to a relative
// 1e-9.
func goldenEqual(a, b string) bool {
	fa, fb := strings.Split(a, "\t"), strings.Split(b, "\t")
	if len(fa) != len(fb) {
		return false
	}
	last := len(fa) - 1
	for i := range fa {
		if i == last && len(fa) == 11 {
			continue
		}
		if fa[i] != fb[i] {
			return false
		}
	}
	if len(fa) != 11 {
		return true
	}
	x, err1 := strconv.ParseFloat(fa[last], 64)
	y, err2 := strconv.ParseFloat(fb[last], 64)
	if err1 != nil || err2 != nil {
		return false
	}
	return x == y || math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
}

func writeGolden(t *testing.T, runs map[string][]string) {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	for _, gc := range goldenCases() {
		fmt.Fprintf(zw, "# %s\n", gc)
		for _, l := range runs[gc.String()] {
			fmt.Fprintln(zw, l)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	var cur string
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		l := sc.Text()
		if name, ok := strings.CutPrefix(l, "# "); ok {
			cur = name
			continue
		}
		out[cur] = append(out[cur], l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
