package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/core"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/serve"
	"nestedecpt/internal/sim"
	"nestedecpt/internal/trace"
	"nestedecpt/internal/traceaudit"
	"nestedecpt/internal/workload"
)

// serveConfig is the serve-churn workload: the VM-density service (48
// guests of GUPS at scale 1024 with THP) driven closed-loop by one
// worker beside one churn shard that maps 16 pages per guest every
// 5 ms, so the churn rate does not depend on how fast the worker is.
// Runs are short so that a run's median over many of them rides out
// the host's bursts of stolen time.
func serveConfig(seed uint64, tiny bool) serve.Config {
	cfg := serve.VMDensityConfig()
	cfg.Seed = seed
	cfg.Workers = 1
	cfg.Shards = 1
	cfg.ChurnPagesPerRound = 16
	cfg.ChurnInterval = 5 * time.Millisecond
	cfg.Duration = 500 * time.Millisecond
	if tiny {
		cfg.VMs = 4
		cfg.Duration = 200 * time.Millisecond
	}
	return cfg
}

// serveRep is one serve.Run: its summary, the build time (wall time
// outside the worker pool's run) and the median live heap sampled while
// the workers ran. Samples from the build are left out, so the figure
// does not depend on how long the build takes against the run; the
// largest sample is not used, since it depends on where the collector's
// cycles fall against the churn writer's copy-on-write publishes.
type serveRep struct {
	sum   *serve.Summary
	setup time.Duration
	heap  float64
}

func runService(cfg serve.Config) (serveRep, error) {
	runtime.GC() // every run starts from the same heap
	heap := sampleHeap(20 * time.Millisecond)
	start := time.Now()
	sum, err := serve.Run(context.Background(), cfg)
	end := time.Now()
	if err != nil {
		heap.Stop(end)
		return serveRep{}, err
	}
	rep := serveRep{sum: sum, setup: end.Sub(start) - sum.Elapsed}
	rep.heap, _ = heap.Stop(end.Add(-sum.Elapsed))
	return rep, nil
}

// checkSummary is serve's correctness check beyond the run's own error
// (a worker error, including a walk that exhausted its retry bound):
// every retired generation was reclaimed, the churn writer ran, the
// per-guest counts add up, and round-robin kept the guests fair.
func checkSummary(s *serve.Summary, vms int) error {
	var errs []error
	if s.PendingReclaims != 0 {
		errs = append(errs, fmt.Errorf("serve: %d generations never reclaimed", s.PendingReclaims))
	}
	if s.Publishes == 0 {
		errs = append(errs, errors.New("serve: the churn writer never published"))
	}
	var total uint64
	for _, n := range s.PerVMOps {
		total += n
	}
	if len(s.PerVMOps) != vms || total != s.TotalOps || total == 0 {
		errs = append(errs, fmt.Errorf("serve: per-VM counts %v do not add up to %d", s.PerVMOps, s.TotalOps))
	}
	if s.Fairness < 0.99 {
		errs = append(errs, fmt.Errorf("serve: fairness %.4f below round-robin's", s.Fairness))
	}
	return errors.Join(errs...)
}

// runServe drives the serve-churn workload. Each serve.Run is one
// operation: its translations are not checked one by one.
func runServe(r *run) error {
	cfg := serveConfig(r.o.seed, r.o.tiny)
	if r.o.trace {
		return traceServe(r, cfg)
	}
	var setups, rates, heaps, pubs []float64
	var last *serve.Summary
	repeat(r.o.budget, 2, func(int) {
		rep, err := runService(cfg)
		if err != nil {
			r.op(err)
			return
		}
		r.op(checkSummary(rep.sum, cfg.VMs))
		setups = append(setups, rep.setup.Seconds())
		rates = append(rates, rep.sum.TranslationsPerSec)
		heaps = append(heaps, rep.heap)
		pubs = append(pubs, float64(rep.sum.Publishes)/rep.sum.Elapsed.Seconds())
		last = rep.sum
	})
	if last == nil {
		return errors.New("no serve run completed")
	}
	r.set("ops_per_s", "1/s", median(rates))
	r.set("setup_s", "s", median(setups))
	r.set("heap_mb", "MB", median(heaps))
	r.note("repetitions       %d: translations/s %.0f, setup s %.3f, heap MB %.2f", len(rates), rates, setups, heaps)
	r.note("%s", fmtMetric("serve_translations_per_s", median(rates), "1/s"))
	r.note("%s", fmtMetric("serve_publishes_per_s", median(pubs), "1/s"))
	r.note("%s", fmtMetric("serve_p99_cycles", float64(last.P99), "cycles"))
	r.note("%s", fmtMetric("setup_s", median(setups), "s"))
	r.note("%s", fmtMetric("heap_mb", median(heaps), "MB"))
	return nil
}

// traceServe is serve's traced run: the untraced service run for the
// serve.* metrics, the same run with serve tracing on (every churn
// probe and a sample of translations) audited by
// traceaudit.AuditServe, and a one-guest replica of the service's
// tables on which a concurrent-mode walk and a churn publish are timed.
// A failed serve.Run counts as a failed operation, as in the untraced
// run, and the metrics it would have given are reported as 0.
func traceServe(r *run, cfg serve.Config) error {
	l := r.spans
	var base, traced serveRep
	var baseErr, tracedErr error
	l.phase("serve.Run(untraced)", 0, func(int) error {
		base, baseErr = runService(cfg)
		return baseErr
	})
	if r.op(baseErr) && r.op(checkSummary(base.sum, cfg.VMs)) {
		s := base.sum
		sec := s.Elapsed.Seconds()
		r.set("serve.translations_per_s", "1/s", s.TranslationsPerSec)
		r.set("serve.publishes_per_s", "1/s", float64(s.Publishes)/sec)
		r.set("serve.churn_ops_per_s", "1/s", float64(s.ChurnOps)/sec)
		r.set("serve.retries_per_mtrans", "1/Mop", ratio(float64(s.Retries)*1e6, float64(s.TotalOps)))
		r.set("serve.fairness", "ratio", s.Fairness)
		r.set("serve.pending_reclaims", "count", float64(s.PendingReclaims))
		r.set("serve.p99_cycles", "cycles", float64(s.P99))
	}

	tcfg := cfg
	rec, col := trace.NewCollected()
	tcfg.Trace, tcfg.ProbeEvery, tcfg.TraceSample = rec, 4, 64
	var events []trace.Event
	l.phase("serve.Run(traced)", 0, func(int) error {
		traced, tracedErr = runService(tcfg)
		rec.Flush()
		events = col.Events()
		return tracedErr
	})
	if r.op(tracedErr) && r.op(checkSummary(traced.sum, cfg.VMs)) {
		findings := traceaudit.AuditServe(events, traceaudit.ServeSpec{})
		for i, v := range findings {
			if i == 5 {
				break
			}
			r.note("audit             %v", v)
		}
		var auditErr error
		if len(findings) > 0 {
			auditErr = fmt.Errorf("serve: %d audit findings", len(findings))
		}
		probes := int(traced.sum.ChurnProbes) + 1
		r.ops(probes, min(len(findings), probes), auditErr)
		r.set("serve.audit_findings", "count", float64(len(findings)))
		if baseErr == nil {
			r.set("trace.overhead_frac", "ratio", ratio(base.sum.TranslationsPerSec, traced.sum.TranslationsPerSec)-1)
		}
		r.note("audit             %d events, %d churn probes, %d findings", len(events), traced.sum.ChurnProbes, len(findings))
	}

	if err := traceReplica(r, cfg); err != nil {
		return err
	}
	r.zeroUnset()
	return nil
}

// replica is one guest of the service rebuilt from public APIs: its
// kernel, the host, and their epoch domains, in concurrent mode.
type replica struct {
	cfg      sim.Config
	gen      workload.Generator
	kern     *kernel.Kernel
	hyp      *hypervisor.Hypervisor
	hostDom  *ecpt.EpochDomain
	guestDom *ecpt.EpochDomain
	metaLow  addr.GPA // lowest guest metadata address the host maps
}

// churnBase is where the replica's churn pages live, above every
// workload area, as in the service.
const churnBase addr.GVA = 0x7000_0000_0000

// buildReplica sizes one guest and the host as serve does, maps the
// whole workload footprint and the guest's table metadata in the host,
// and switches both table sets to concurrent mode.
func buildReplica(cfg serve.Config) (*replica, error) {
	base := sim.DefaultConfig(sim.DesignNestedECPT, cfg.Workload, cfg.THP)
	base.WorkloadOpts = workload.Options{Scale: cfg.Scale, Seed: cfg.Seed}
	gen, err := workload.New(cfg.Workload, base.WorkloadOpts)
	if err != nil {
		return nil, err
	}
	scfg, err := base.Normalized(gen.Footprint())
	if err != nil {
		return nil, err
	}
	rp := &replica{cfg: scfg, gen: gen, hostDom: &ecpt.EpochDomain{}, guestDom: &ecpt.EpochDomain{}}
	rp.hyp, err = hypervisor.New(hypervisor.Config{
		HostMemBytes: scfg.GuestMemBytes*2 + (2 << 30), THP: cfg.THP, BuildECPT: true,
		ECPT: ecpt.ScaledSetConfig(true, cfg.Scale), Seed: cfg.Seed + 202,
		HugePageFailureRate: scfg.HugePageFailureRate,
	})
	if err != nil {
		return nil, err
	}
	rp.kern, err = kernel.New(kernel.Config{
		GuestMemBytes: scfg.GuestMemBytes, THP: cfg.THP, BuildECPT: true,
		ECPT: ecpt.ScaledSetConfig(false, cfg.Scale), Seed: scfg.WorkloadOpts.Seed + 101,
		HugePageFailureRate: scfg.HugePageFailureRate,
	})
	if err != nil {
		return nil, err
	}
	for _, v := range gen.VMAs() {
		rp.kern.DefineVMA(v)
	}
	rp.kern.DefineVMA(kernel.VMA{Base: churnBase, Size: 1 << 30})
	for _, v := range gen.VMAs() {
		limit := addr.Add(v.Base, v.Size)
		for va := v.Base; va < limit; {
			_, size, err := rp.kern.Touch(va)
			if err != nil {
				return nil, err
			}
			pageBase := addr.PageBase(va, size)
			gpa, _, ok := rp.kern.Translate(pageBase)
			if !ok {
				return nil, fmt.Errorf("replica: %#x not mapped after touch", va)
			}
			for off := uint64(0); off < size.Bytes(); off += addr.Page4K.Bytes() {
				if _, err := rp.hyp.EnsureMapped(addr.Add(gpa, off), false); err != nil {
					return nil, err
				}
			}
			va = addr.Add(pageBase, size.Bytes())
		}
	}
	if err := rp.mapMetadata(); err != nil {
		return nil, err
	}
	rp.hyp.ECPTs().EnterConcurrent(rp.hostDom)
	rp.kern.ECPTs().EnterConcurrent(rp.guestDom)
	return rp, nil
}

// mapMetadata host-maps the guest's page-table and CWT frames allocated
// since the last call, so walks through them never fault.
func (rp *replica) mapMetadata() error {
	floor, top := rp.kern.Allocator().MetaRegion()
	if rp.metaLow == 0 {
		rp.metaLow = top
	}
	for pa := floor; pa < rp.metaLow; pa = addr.Add(pa, addr.Page4K.Bytes()) {
		if _, err := rp.hyp.EnsureMapped(pa, true); err != nil {
			return err
		}
	}
	rp.metaLow = min(rp.metaLow, floor)
	return nil
}

// traceReplica times a Nested ECPT walk against published snapshots
// and the publish of a 16-page churn batch on the replica.
func traceReplica(r *run, cfg serve.Config) error {
	l := r.spans
	var rp *replica
	if _, err := l.phase("serve.replica.build", 0, func(int) error {
		var err error
		rp, err = buildReplica(cfg)
		return err
	}); err != nil {
		return err
	}
	n, batch := replayLen(r.o.tiny)
	_, err := l.phase("serve.replica", 0, func(id int) error {
		mem := cachesim.NewHierarchy(rp.cfg.Hierarchy)
		w := core.NewNestedECPT(rp.cfg.NestedECPT, mem, rp.kern, rp.hyp)
		rdG, rdH := rp.guestDom.NewReader(), rp.hostDom.NewReader()
		defer rdG.Close()
		defer rdH.Close()
		vas := make([]addr.GVA, n)
		for i := range vas {
			vas[i] = rp.gen.Next().VA
		}
		var now uint64
		var refs, failed int
		var errs []error
		walk := func(i int) {
			rdG.Enter()
			rdH.Enter()
			wres, err := w.Walk(now, vas[i])
			rdH.Exit()
			rdG.Exit()
			if err != nil {
				failed++
				if len(errs) < 3 {
					errs = append(errs, err)
				}
			}
			now += wres.Latency + 1
			refs += wres.Accesses
		}
		half := n / 2
		for i := 0; i < half; i++ {
			walk(i)
		}
		mem.ResetStats()
		refs = 0
		r.set("core.walk_ns", "ns", l.timeCalls("core.NestedECPT.Walk(concurrent)", id, n-half, batch, func(i int) { walk(half + i) }))
		r.ops(n, failed, errors.Join(errs...))
		r.set("core.mem_refs_per_walk", "count", ratio(float64(refs), float64(n-half)))
		l1, l2, l3 := mem.Stats()
		for i, lv := range []cachesim.LevelStats{l1, l2, l3} {
			for _, src := range []cachesim.Source{cachesim.SourceCPU, cachesim.SourceMMU} {
				r.set(fmt.Sprintf("cachesim.l%d_miss_rate_%s", i+1, srcName(src)), "ratio",
					ratio(float64(lv.Misses[src]), float64(lv.Accesses[src])))
			}
		}

		// Churn batches as the service's shard makes them: map 16
		// fresh pages in the guest, host-map them and any new table
		// metadata, publish the host set, then time the guest publish.
		rounds := 64
		if r.o.tiny {
			rounds = 8
		}
		var pub []float64
		next := uint64(0)
		for round := 0; round < rounds; round++ {
			for p := 0; p < cfg.ChurnPagesPerRound; p++ {
				va := addr.Add(churnBase, next*addr.Page4K.Bytes())
				next++
				if _, _, err := rp.kern.Touch(va); err != nil {
					return err
				}
				gpa, _, ok := rp.kern.Translate(va)
				if !ok {
					return fmt.Errorf("replica: churn page %#x not mapped", va)
				}
				if _, err := rp.hyp.EnsureMapped(gpa, false); err != nil {
					return err
				}
			}
			if err := rp.mapMetadata(); err != nil {
				return err
			}
			rp.hyp.ECPTs().Publish()
			start := time.Now()
			rp.kern.ECPTs().Publish()
			end := time.Now()
			l.record("ecpt.Set.Publish(guest)", id, start, end, 1)
			pub = append(pub, float64(end.Sub(start).Nanoseconds()))
		}
		r.set("ecpt.publish_ns", "ns", median(pub))
		return nil
	})
	return err
}
