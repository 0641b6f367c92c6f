package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/sim"
	"nestedecpt/internal/workload"
)

// simDesign selects the sim-* workload's page-table design.
type simDesign int

const (
	designNECPT simDesign = iota
	designNRadix
)

func (d simDesign) sim() sim.Design {
	if d == designNRadix {
		return sim.DesignNestedRadix
	}
	return sim.DesignNestedECPT
}

func (d simDesign) workload() string {
	if d == designNRadix {
		return "sim-gups-nradix"
	}
	return "sim-gups-necpt"
}

// simConfig is the sim-* workloads' machine: GUPS, 4 KB pages, the
// Advanced technique stack (DefaultConfig's), scale 16 as in
// cmd/experiments, 200k warm-up accesses.
func simConfig(d simDesign, seed uint64, tiny bool) sim.Config {
	cfg := sim.DefaultConfig(d.sim(), "GUPS", false)
	cfg.WorkloadOpts = workload.Options{Scale: 16, Seed: seed}
	cfg.WarmupAccesses = 200_000
	cfg.MeasureAccesses = 300_000
	if tiny {
		cfg.WorkloadOpts.Scale = 512
		cfg.WarmupAccesses = 2_000
		cfg.MeasureAccesses = 4_000
	}
	return cfg
}

// simRep is one untraced repetition: build and prepopulate a machine,
// then run it.
type simRep struct {
	m     *sim.Machine
	res   *sim.Result
	setup time.Duration
	run   time.Duration
	heap  float64
}

// buildMachine is the set-up a sim-* workload times: sim.NewMachine
// plus an explicit Prepopulate. Run's own Prepopulate then only
// re-scans the installed mappings (it is idempotent; README.md).
func buildMachine(cfg sim.Config) (*sim.Machine, time.Duration, error) {
	start := time.Now()
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := m.Prepopulate(); err != nil {
		return nil, 0, err
	}
	return m, time.Since(start), nil
}

// runRep builds and runs one machine; profile, when non-nil, receives
// a CPU profile of Machine.Run alone.
func runRep(cfg sim.Config, profile *bytes.Buffer) (simRep, error) {
	// Return the previous repetition's memory to the OS, so each
	// repetition builds its tables in freshly mapped pages, as a new
	// process would, instead of in the physical pages a previous one
	// happened to get.
	debug.FreeOSMemory()
	m, setup, err := buildMachine(cfg)
	if err != nil {
		return simRep{}, err
	}
	rep := simRep{m: m, setup: setup, heap: liveHeapMB()}
	if profile != nil {
		if err := pprof.StartCPUProfile(profile); err != nil {
			return simRep{}, err
		}
	}
	start := time.Now()
	rep.res, err = m.Run()
	rep.run = time.Since(start)
	if profile != nil {
		pprof.StopCPUProfile()
	}
	return rep, err
}

// accessesPerRun is how many accesses Machine.Run simulates.
func accessesPerRun(cfg sim.Config) float64 {
	return float64(cfg.WarmupAccesses + cfg.MeasureAccesses)
}

// checkResult is the correctness check of one run's statistics: the
// counters must be internally consistent, equal to the first
// repetition's (same seed, same inputs), and equal to the pinned digest
// when one exists for this workload and seed.
func checkResult(r *run, d simDesign, cfg sim.Config, res *sim.Result, first []field) error {
	var errs []error
	if res.MemAccesses != cfg.MeasureAccesses {
		errs = append(errs, fmt.Errorf("mem_accesses %d, configured %d", res.MemAccesses, cfg.MeasureAccesses))
	}
	if res.L1TLB.Total() != res.MemAccesses {
		errs = append(errs, fmt.Errorf("l1_tlb lookups %d != accesses %d", res.L1TLB.Total(), res.MemAccesses))
	}
	if res.Walks != res.L2TLB.Misses {
		errs = append(errs, fmt.Errorf("walks %d != l2_tlb misses %d", res.Walks, res.L2TLB.Misses))
	}
	if res.WalkLatency == nil || res.WalkLatency.Count() != res.Walks {
		errs = append(errs, fmt.Errorf("walk histogram does not count every walk"))
	}
	fs := resultFields(res)
	if first != nil {
		if bad := diffFields(first, fs); len(bad) > 0 {
			errs = append(errs, fmt.Errorf("not deterministic: fields %s differ from the first repetition", strings.Join(bad, ",")))
		}
	}
	if !r.o.tiny {
		got := digest(fs)
		bad, pinned := checkPinned(pinnedSim, pinKey{d.workload(), r.o.seed}, got)
		if len(bad) > 0 {
			errs = append(errs, fmt.Errorf("digest mismatch at seed %d in fields %s", r.o.seed, strings.Join(bad, ",")))
		}
		if !pinned && first == nil && (r.o.seed == defaultSeed || r.o.seed == heldOutSeed) {
			r.note("unpinned digest   %s seed=%d %v", d.workload(), r.o.seed, got)
		}
	}
	return errors.Join(errs...)
}

// oracleSample is how many translations each repetition checks
// against the functional page tables.
const oracleSample = 256

// checkTranslations walks a sample of the workload's own addresses on
// the finished machine and compares every frame with the functional
// guest and host translation (the two must compose to the walker's
// answer). It returns how many translations it checked and failed.
func checkTranslations(m *sim.Machine, cfg sim.Config) (checked, failed int, err error) {
	gen, err := workload.New(cfg.Workload, m.EffectiveConfig().WorkloadOpts)
	if err != nil {
		return 0, 0, err
	}
	var errs []error
	now := uint64(1) << 40
	for i := 0; i < oracleSample; i++ {
		va := gen.Next().VA
		want, ok := composeTranslation(m, va)
		wres, werr := m.Walker().Walk(now, va)
		now += 1000
		checked++
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("oracle: %#x not mapped", va))
		case werr != nil:
			errs = append(errs, fmt.Errorf("oracle: walk %#x: %w", va, werr))
		case addr.Translate(wres.Frame, va, wres.Size) != want:
			errs = append(errs, fmt.Errorf("oracle: walk %#x gave %#x, tables say %#x", va, addr.Translate(wres.Frame, va, wres.Size), want))
		default:
			continue
		}
		failed++
	}
	return checked, failed, errors.Join(errs...)
}

// composeTranslation resolves va through the guest and host tables.
func composeTranslation(m *sim.Machine, va addr.GVA) (addr.HPA, bool) {
	gpa, _, ok := m.Kernel().Translate(va)
	if !ok {
		return 0, false
	}
	if m.Hypervisor() == nil {
		return addr.IdentityHPA(gpa), true
	}
	hpa, _, ok := m.Hypervisor().Translate(gpa)
	return hpa, ok
}

// runSim drives a sim-* workload.
func runSim(r *run, d simDesign) error {
	cfg := simConfig(d, r.o.seed, r.o.tiny)
	if r.o.trace {
		return traceSim(r, d, cfg)
	}
	var setups, rates, heaps []float64
	var first []field
	// Only scalars outlive a repetition: a *sim.Result points into its
	// Machine, and holding one would keep the machine in the next
	// repetition's heap measurement.
	var ipc, walkCycles float64
	repeat(r.o.budget, 2, func(i int) {
		rep, err := runRep(cfg, nil)
		if err != nil {
			r.op(err)
			return
		}
		if r.op(checkResult(r, d, cfg, rep.res, first)) && first == nil {
			first = resultFields(rep.res)
		}
		r.ops(checkTranslations(rep.m, cfg))
		setups = append(setups, rep.setup.Seconds())
		rates = append(rates, accessesPerRun(cfg)/rep.run.Seconds())
		heaps = append(heaps, rep.heap)
		ipc, walkCycles = rep.res.IPC(), ratio(float64(rep.res.WalkCycles), float64(rep.res.Walks))
	})
	if len(rates) == 0 {
		return errors.New("no repetition completed")
	}
	r.set("ops_per_s", "1/s", median(rates))
	r.set("setup_s", "s", median(setups))
	r.set("heap_mb", "MB", median(heaps))
	r.note("repetitions       %d: accesses/s %.0f, setup s %.3f", len(rates), rates, setups)
	r.note("%s", fmtMetric("sim_accesses_per_s", median(rates), "1/s"))
	r.note("%s", fmtMetric("setup_s", median(setups), "s"))
	r.note("%s", fmtMetric("heap_mb", median(heaps), "MB"))
	r.note("%s", fmtMetric("sim_ipc", ipc, "instr/cycle"))
	r.note("%s", fmtMetric("sim_walk_cycles", walkCycles, "cycles"))
	return nil
}
