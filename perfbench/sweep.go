package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"nestedecpt/internal/report"
	"nestedecpt/internal/sim"
	"nestedecpt/internal/workload"
)

// sweepParallelism is the sweep's width: the host's two cores.
const sweepParallelism = 2

// sweepSettings is report.QuickSettings' applications (BC, GUPS and
// SysBench) at the benchmark's seed, simulated two runs at a time, with
// a smaller footprint and shorter runs than QuickSettings: scale 64 and
// 10k warm-up plus 30k measured accesses per run instead of scale 16 and
// 30k plus 80k. One rendering then takes about 5 s instead of 18 s on a
// 2-core host, so that one benchmark run holds several renderings and
// reports their median.
func sweepSettings(seed uint64, tiny bool) report.Settings {
	s := report.QuickSettings()
	s.Seed = seed
	s.Parallelism = sweepParallelism
	s.Scale, s.Warmup, s.Measure = 64, 10_000, 30_000
	if tiny {
		s.Warmup, s.Measure, s.Scale = 500, 1_000, 512
	}
	return s
}

// sweepRep is one rendering of Figure 9.
type sweepRep struct {
	text     string
	wall     time.Duration
	peakHeap float64       // largest live heap sampled during the sweep
	runs     []progressRun // from the runner's progress lines
	failures int
}

// runFigure renders Figure 9 once on a fresh suite, sampling the live
// heap and collecting the runner's progress lines.
func runFigure(s report.Settings) (sweepRep, error) {
	var progress bytes.Buffer
	s.Progress = &progress
	var out bytes.Buffer
	runtime.GC() // every rendering starts from the same heap
	heap := sampleHeap(20 * time.Millisecond)
	start := time.Now()
	err := report.NewSuite(s).Figure9(&out)
	rep := sweepRep{wall: time.Since(start), text: out.String()}
	_, rep.peakHeap = heap.Stop(start)
	if err != nil {
		return rep, err
	}
	rep.runs, rep.failures, err = parseProgress(progress.String())
	return rep, err
}

// progressRun is one completed run of the sweep: its host time and
// when it ended, since the runner started.
type progressRun struct {
	dur, end time.Duration
}

// parseProgress reads the runner's "# sweep i/n done <name> <dur>s
// elapsed <e>s eta <eta>s" lines. Run names contain spaces, so the
// fields are found from "elapsed".
func parseProgress(text string) (runs []progressRun, failures int, err error) {
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || f[0] != "#" {
			continue
		}
		at := -1
		for i, w := range f {
			if w == "elapsed" {
				at = i
			}
		}
		if at < 1 || at+1 >= len(f) {
			return nil, 0, fmt.Errorf("sweep: unreadable progress line %q", line)
		}
		dur, err1 := parseSeconds(f[at-1])
		end, err2 := parseSeconds(f[at+1])
		if err := errors.Join(err1, err2); err != nil {
			return nil, 0, fmt.Errorf("sweep: progress line %q: %w", line, err)
		}
		if f[3] != "done" {
			failures++
		}
		runs = append(runs, progressRun{dur: dur, end: end})
	}
	return runs, failures, nil
}

func parseSeconds(s string) (time.Duration, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
	return time.Duration(v * float64(time.Second)), err
}

// figureGeoMean returns the GeoMean row of a rendered Figure 9.
func figureGeoMean(text string) ([]float64, error) {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "GeoMean" {
			continue
		}
		var vals []float64
		for _, w := range f[1:] {
			if w == "|" {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSuffix(w, "x"), 64)
			if err != nil {
				return nil, fmt.Errorf("sweep: GeoMean cell %q: %w", w, err)
			}
			if !(v > 0) {
				return nil, fmt.Errorf("sweep: GeoMean cell %q is not a positive speedup", w)
			}
			vals = append(vals, v)
		}
		if len(vals) != 12 {
			return nil, fmt.Errorf("sweep: GeoMean row has %d cells, want 12", len(vals))
		}
		return vals, nil
	}
	return nil, errors.New("sweep: no GeoMean row in Figure 9")
}

// checkFigure is the sweep's correctness check: the figure has its
// GeoMean row, repeats byte for byte, and matches the pinned digest
// at a pinned seed.
func checkFigure(r *run, text, first string) error {
	if _, err := figureGeoMean(text); err != nil {
		return err
	}
	if first != "" && text != first {
		return errors.New("sweep: Figure 9 differs between two renderings at the same seed")
	}
	if r.o.tiny {
		return nil
	}
	got := hashText(text)
	want, ok := pinnedSweep[pinKey{"sweep-fig9-quick", r.o.seed}]
	switch {
	case ok && got != want:
		return fmt.Errorf("sweep: Figure 9 digest %s at seed %d, pinned %s", got, r.o.seed, want)
	case !ok && (r.o.seed == defaultSeed || r.o.seed == heldOutSeed):
		r.note("unpinned digest   sweep-fig9-quick seed=%d %s", r.o.seed, got)
	}
	return nil
}

// sweepSetup builds and prepopulates the Nested ECPT (Advanced, 4 KB)
// machine of each of the figure's applications: the table-building
// work that dominates the sweep's short runs, timed on its own because
// inside the sweep it overlaps with simulation. It returns the total
// time and the live heap of the largest of the machines. (The peak heap
// of the sweep itself depends on which two runs happen to overlap.)
func sweepSetup(s report.Settings) (total time.Duration, heap float64, err error) {
	for _, app := range s.Apps {
		cfg := sim.DefaultConfig(sim.DesignNestedECPT, app, false)
		cfg.WorkloadOpts = workload.Options{Scale: s.Scale, Seed: s.Seed}
		cfg.WarmupAccesses, cfg.MeasureAccesses = s.Warmup, s.Measure
		m, d, err := buildMachine(cfg)
		if err != nil {
			return 0, 0, err
		}
		total += d
		heap = max(heap, liveHeapMB())
		runtime.KeepAlive(m)
	}
	return total, heap, nil
}

// sweepAccesses is the simulated accesses of every run of the sweep.
func sweepAccesses(s report.Settings, runs int) float64 {
	return float64(runs) * float64(s.Warmup+s.Measure)
}

// runSweep drives the sweep-fig9-quick workload.
func runSweep(r *run) error {
	s := sweepSettings(r.o.seed, r.o.tiny)
	if r.o.trace {
		return traceSweep(r, s)
	}
	// Each repetition builds the set-up machines, then renders the
	// figure on a fresh suite. The first repetition of a process also
	// grows the heap to the sweep's peak, which makes its rendering
	// about a fifth slower than the later ones; it is checked, not
	// timed, and at least two timed repetitions follow.
	var setups, heaps, rates, walls []float64
	var first string
	var last sweepRep
	repeat(r.o.budget, 3, func(i int) {
		setup, heap, err := sweepSetup(s)
		if !r.op(err) {
			return
		}
		rep, err := runFigure(s)
		if err != nil {
			r.op(err)
			return
		}
		r.ops(len(rep.runs), rep.failures, nil)
		if r.op(checkFigure(r, rep.text, first)) && first == "" {
			first = rep.text
		}
		if i == 0 {
			return
		}
		setups, heaps = append(setups, setup.Seconds()), append(heaps, heap)
		rates = append(rates, sweepAccesses(s, len(rep.runs))/rep.wall.Seconds())
		walls = append(walls, rep.wall.Seconds())
		last = rep
	})
	if len(rates) == 0 {
		return errors.New("no sweep completed")
	}
	r.set("ops_per_s", "1/s", median(rates))
	r.set("setup_s", "s", median(setups))
	r.set("heap_mb", "MB", median(heaps))
	r.note("repetitions       %d: accesses/s %.0f, setup s %.3f", len(rates), rates, setups)
	r.note("%s", fmtMetric("sweep_s", median(walls), "s"))
	r.note("%s", fmtMetric("sim_accesses_per_s", median(rates), "1/s"))
	r.note("%s", fmtMetric("setup_s", median(setups), "s"))
	r.note("%s", fmtMetric("heap_mb", median(heaps), "MB"))
	r.note("%s", fmtMetric("sweep_peak_heap_mb", last.peakHeap, "MB"))
	return nil
}

// traceSweep renders the figure twice, untraced and then with a span
// per run built from the runner's progress lines, and reports the
// runner's scheduling metrics.
func traceSweep(r *run, s report.Settings) error {
	l := r.spans
	var base, traced sweepRep
	var baseErr, tracedErr error
	root := 0
	l.phase("sweep.Figure9(untraced)", 0, func(int) error {
		base, baseErr = runFigure(s)
		return baseErr
	})
	if r.op(baseErr) {
		r.op(checkFigure(r, base.text, ""))
	}
	start := time.Now()
	l.phase("sweep.Figure9(traced)", 0, func(id int) error {
		root = id
		traced, tracedErr = runFigure(s)
		return tracedErr
	})
	if !r.op(tracedErr) {
		// The failure is counted; the runner metrics need its runs.
		r.zeroUnset()
		return nil
	}
	r.ops(len(traced.runs), traced.failures, nil)
	r.op(checkFigure(r, traced.text, base.text))
	if len(traced.runs) == 0 {
		return errors.New("sweep: no runs reported")
	}
	// One span per run, placed by its progress line: it ended at the
	// reported elapsed time and lasted the reported duration.
	var sum time.Duration
	secs := make([]float64, len(traced.runs))
	for i, pr := range traced.runs {
		sum += pr.dur
		secs[i] = pr.dur.Seconds()
		l.record(fmt.Sprintf("runner.task#%d", i+1), root, start.Add(pr.end-pr.dur), start.Add(pr.end), 1)
	}
	sort.Float64s(secs)
	// checkFigure has counted a missing GeoMean row as a failure.
	if geo, err := figureGeoMean(traced.text); err == nil {
		r.set("report.fig9_necpt_speedup", "ratio", geo[2])
	}
	r.set("runner.sweep_s", "s", traced.wall.Seconds())
	r.set("runner.runs", "count", float64(len(secs)))
	r.set("runner.run_s_p50", "s", median(secs))
	r.set("runner.run_s_max", "s", secs[len(secs)-1])
	r.set("runner.parallel_efficiency", "ratio", sum.Seconds()/(traced.wall.Seconds()*sweepParallelism))
	if baseErr == nil {
		r.set("trace.overhead_frac", "ratio", traced.wall.Seconds()/base.wall.Seconds()-1)
	}
	r.note("sweep             untraced %.2fs, traced %.2fs, %d runs", base.wall.Seconds(), traced.wall.Seconds(), len(secs))
	r.zeroUnset()
	return nil
}
