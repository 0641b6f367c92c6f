package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"nestedecpt/internal/sim"
)

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var (
	metricName  = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]decl{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, metricName)
		}
		if !unitPattern.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.name, d.unit, unitPattern)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	for name := range workloads {
		if !metricName.MatchString(name) || seen[name] {
			t.Errorf("workload name %q is malformed or reused", name)
		}
	}
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, benchmark reports %d", len(bj.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, benchmark reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark reports %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// tinyRun executes one workload at smoke-test length.
func tinyRun(t *testing.T, workload string, trace bool) *outcome {
	t.Helper()
	o := opts{workload: workload, seed: 7, budget: time.Nanosecond, trace: trace, tiny: true, spanDir: t.TempDir()}
	out, err := execute(o, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return out
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			out := tinyRun(t, name, trace)
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or in the wrong unit", name, trace, d.name)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

func TestPerturbedResultFailsDigest(t *testing.T) {
	cfg := simConfig(designNECPT, 7, true)
	rep, err := runRep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean := resultFields(rep.res)
	table := map[pinKey]map[string]string{{"sim-gups-necpt", 7}: digest(clean)}
	if bad, pinned := checkPinned(table, pinKey{"sim-gups-necpt", 7}, digest(clean)); !pinned || len(bad) > 0 {
		t.Fatalf("clean result: pinned=%v mismatches %v", pinned, bad)
	}
	rep.res.Cycles++
	rep.res.WalkLatency.Observe(7)
	perturbed := resultFields(rep.res)
	bad, _ := checkPinned(table, pinKey{"sim-gups-necpt", 7}, digest(perturbed))
	if strings.Join(bad, ",") != "cycles,walk_histogram" {
		t.Errorf("perturbed digest mismatches %v, want cycles and walk_histogram", bad)
	}
	if diff := diffFields(clean, perturbed); strings.Join(diff, ",") != "cycles,walk_histogram" {
		t.Errorf("perturbed fields differ in %v, want cycles and walk_histogram", diff)
	}

	r := newRun(opts{seed: 7, tiny: true}, io.Discard)
	if err := checkResult(r, designNECPT, cfg, rep.res, clean); err == nil || !strings.Contains(err.Error(), "cycles") {
		t.Errorf("checkResult on a perturbed result = %v, want a cycles mismatch", err)
	}
}

// TestExplicitPrepopulateKeepsResult checks the assumption behind the
// sim-* set-up timing: prepopulating before Machine.Run, whose own
// Prepopulate then only re-scans, leaves the simulated result unchanged.
func TestExplicitPrepopulateKeepsResult(t *testing.T) {
	for _, d := range []simDesign{designNECPT, designNRadix} {
		cfg := simConfig(d, 7, true)
		plain, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runRep(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffFields(resultFields(plain), resultFields(rep.res)); len(diff) > 0 {
			t.Errorf("%s: explicit Prepopulate changed %v", d.workload(), diff)
		}
	}
}

func TestPinnedSeedsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both sim-* workloads at full length")
	}
	for _, d := range []simDesign{designNECPT, designNRadix} {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			if _, ok := pinnedSim[pinKey{d.workload(), seed}]; !ok {
				t.Errorf("%s: no digest pinned for seed %d", d.workload(), seed)
				continue
			}
			cfg := simConfig(d, seed, false)
			rep, err := runRep(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := newRun(opts{seed: seed}, io.Discard)
			if err := checkResult(r, d, cfg, rep.res, nil); err != nil {
				t.Errorf("%s seed %d: %v", d.workload(), seed, err)
			}
		}
	}
	for _, seed := range []uint64{defaultSeed, heldOutSeed} {
		if _, ok := pinnedSweep[pinKey{"sweep-fig9-quick", seed}]; !ok {
			t.Errorf("sweep-fig9-quick: no digest pinned for seed %d", seed)
		}
	}
}

func TestParseProgress(t *testing.T) {
	text := "# sweep 1/2 done Nested ECPTs/BC/+Step1 PTE-hCWT          0.73s elapsed   0.8s eta   0.7s\n" +
		"# sweep 2/2 FAIL Nested Radix/GUPS/THP                        1.50s elapsed   2.3s eta   0.0s\n"
	runs, failures, err := parseProgress(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || failures != 1 {
		t.Fatalf("runs %v failures %d, want 2 runs and 1 failure", runs, failures)
	}
	if runs[0].dur != 730*time.Millisecond || runs[1].end != 2300*time.Millisecond {
		t.Errorf("parsed %v", runs)
	}
	if _, _, err := parseProgress("# sweep 1/1 done x 0.5s\n"); err == nil {
		t.Error("a progress line without its elapsed field parsed")
	}
}

func TestFigureGeoMean(t *testing.T) {
	row := "GeoMean     1.000   1.100   1.117   1.200 |   1.010   1.050   1.080   1.100 |   1.050   1.150   1.300   1.350\n"
	vals, err := figureGeoMean("Figure 9\n" + row)
	if err != nil || len(vals) != 12 || vals[2] != 1.117 {
		t.Fatalf("figureGeoMean = %v, %v", vals, err)
	}
	if _, err := figureGeoMean("Figure 9\nGeoMean 1.0 0.0\n"); err == nil {
		t.Error("a GeoMean row with a zero speedup parsed")
	}
}

// spin burns CPU in a function the profile test can find by name.
func spin(d time.Duration) uint64 {
	var x uint64
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink += spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range p.samples {
		found = found || (s.ns > 0 && contains(s.stack, "nestedecpt/perfbench.spin"))
	}
	if !found {
		t.Errorf("no sample of spin among %d samples", len(p.samples))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestEntryGroups(t *testing.T) {
	cases := map[string]string{
		"nestedecpt/internal/kernel.(*Kernel).Touch":                              "translate",
		"nestedecpt/internal/hypervisor.(*Hypervisor).EnsureMapped":               "translate",
		"nestedecpt/internal/core.(*NestedECPT).Walk":                             "walker",
		"nestedecpt/internal/cachesim.(*Hierarchy).AccessRemote":                  "cachesim",
		"nestedecpt/internal/ecpt.(*Set[go.shape.uint64,go.shape.uint64]).Lookup": "",
		"nestedecpt/internal/sim.(*Machine).Prepopulate":                          "rescan",
		"nestedecpt/internal/workload.(*gups).Next":                               "workload",
		"nestedecpt/internal/tlbsim.(*TLB).Access":                                "tlbsim",
	}
	for fn, want := range cases {
		if got := entryGroup(fn); got != want {
			t.Errorf("entryGroup(%s) = %q, want %q", fn, got, want)
		}
	}
	if got := packageOf("nestedecpt/internal/ecpt.(*Set[go.shape.uint64,go.shape.uint64]).Lookup"); got != "ecpt" {
		t.Errorf("packageOf = %q, want ecpt", got)
	}
}

func TestWithinSampling(t *testing.T) {
	shares := map[string]float64{"translate": 0.40, "walker": 0.35}
	if _, _, ok := withinSampling(shares, "translate", "walker", 100); !ok {
		t.Error("a 5-point lead over 100 samples ranked the two")
	}
	if _, _, ok := withinSampling(shares, "translate", "walker", 10_000); ok {
		t.Error("a 5-point lead over 10,000 samples did not rank the two")
	}
	if _, _, ok := withinSampling(shares, "translate", "translate", 10); !ok {
		t.Error("a group trails itself")
	}
}
