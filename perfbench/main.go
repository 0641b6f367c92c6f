// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed host-time budget, checks that every output is
// correct, and prints its metrics as one JSON object on the last line
// of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it makes a separate traced run that times calls into
// each layer's public functions and reports the per-layer metrics.
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// opts are one invocation's settings.
type opts struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	// tiny shrinks every workload to a smoke-test length (the
	// benchmark's own tests); pinned digests do not apply then.
	tiny bool
	// spanDir, when set, receives the traced run's spans as JSONL.
	spanDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line the benchmark prints last.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation: the metrics gathered so
// far, the operation counts, and the human-readable report.
type run struct {
	o         opts
	metrics   map[string]metric
	attempted int
	failed    int
	log       io.Writer
	spans     *spanLog
}

func newRun(o opts, log io.Writer) *run {
	return &run{o: o, metrics: map[string]metric{}, log: log, spans: newSpanLog(o.seed)}
}

// set records metric name with its unit.
func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// op counts one attempted operation, and a failure when err is non-nil.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "FAIL: %v\n", err)
		return false
	}
	return true
}

// ops counts n attempted operations of which failed failed; err
// describes the failures.
func (r *run) ops(n, failed int, err error) {
	r.attempted += n
	r.failed += failed
	if err != nil {
		fmt.Fprintf(r.log, "FAIL: %v\n", err)
	}
}

// note prints one report line. The workloads print their metrics here
// under their own names (sim_accesses_per_s, sweep_s, ...) with units,
// beside the JSON's workload-neutral names.
func (r *run) note(format string, args ...any) {
	fmt.Fprintf(r.log, "# "+format+"\n", args...)
}

// workloadFunc runs one workload, untraced or traced.
type workloadFunc func(r *run) error

// workloads maps each BENCHMARK.json workload to the function that
// runs it.
var workloads = map[string]workloadFunc{
	"sim-gups-necpt":   func(r *run) error { return runSim(r, designNECPT) },
	"sim-gups-nradix":  func(r *run) error { return runSim(r, designNRadix) },
	"sweep-fig9-quick": runSweep,
	"serve-churn":      runServe,
}

// execute runs o's workload and returns the outcome. The outcome lists
// exactly the declared metrics of o's mode; a metric the workload did
// not set is an error, so the output can never silently shrink.
func execute(o opts, log io.Writer) (*outcome, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	r := newRun(o, log)
	printFingerprint(r)
	if err := fn(r); err != nil {
		return nil, err
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	out := &outcome{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range want {
		m, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not report metric %s", o.workload, d.name)
		}
		if m.Unit != d.unit {
			return nil, fmt.Errorf("metric %s reported in %q, declared %q", d.name, m.Unit, d.unit)
		}
		out.Metrics[d.name] = m
	}
	if o.trace && o.spanDir != "" {
		path := filepath.Join(o.spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := r.spans.writeFile(path); err != nil {
			return nil, err
		}
		r.note("spans             %d -> %s", len(r.spans.spans), path)
	}
	return out, nil
}

func main() {
	var o opts
	var seconds, traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Uint64Var(&o.seed, "seed", 42, "input seed")
	fs.IntVar(&seconds, "seconds", 10, "host seconds to measure for")
	fs.IntVar(&traceFlag, "trace", 0, "1 makes the traced run that reports per-layer metrics")
	fs.StringVar(&o.spanDir, "spans", "", "directory the traced run writes its spans to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 || seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	o.budget = time.Duration(seconds) * time.Second
	o.trace = traceFlag == 1
	out, err := execute(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// sortedKeys returns m's keys in order, for deterministic reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
