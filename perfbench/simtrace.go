package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/mmucache"
	"nestedecpt/internal/sim"
	"nestedecpt/internal/tlbsim"
	"nestedecpt/internal/vhash"
	"nestedecpt/internal/workload"
)

// sink keeps timed calls whose results are otherwise unused from being
// optimized away.
var sink uint64

// replay is a sample of a workload's access stream with each address
// resolved through the guest and host tables.
type replay struct {
	va   []addr.GVA
	gpa  []addr.GPA
	hpa  []addr.HPA
	size []addr.PageSize // the TLB entry size: the smaller of guest and host
}

// replayLen returns how many accesses the traced run replays (the first
// half warms the replica TLB and caches, the second half is timed) and
// how many calls each span times.
func replayLen(tiny bool) (n, batch int) {
	if tiny {
		return 4_000, 500
	}
	return 100_000, 5_000
}

// layerTimes are the traced run's per-call host times in context, in
// ns, that the attribution multiplies by calls per access.
type layerTimes struct {
	next, tlb, prefault, inject, access, remote, walk float64
}

// Profiled repetitions of the traced run continue until the profile
// holds minProfileSamples samples of the simulating goroutine, or
// maxProfiledReps repetitions have run.
const (
	minProfileSamples = 800
	maxProfiledReps   = 6
)

// traceSim is the traced run of a sim-* workload. It builds the machine
// exactly as the untraced run does and runs it: once to warm the
// process, then under a CPU profile until the profile has enough
// samples to rank the layers, then untraced (the reference host time
// per access). It then replays a sample of the workload's own access
// stream through each layer's public entry point on the warmed machine,
// times the first touches on a fresh machine, and attributes the
// untraced host time per access to the layers. A failed repetition
// counts as a failed operation, as in the untraced run; when the
// untraced repetition fails there is no machine to replay on, and the
// metrics are reported as 0.
func traceSim(r *run, d simDesign, cfg sim.Config) error {
	l := r.spans
	var root int
	var base simRep
	var baseOK bool
	var profiledRun time.Duration // the first profiled repetition's Run
	prof := &cpuProfile{}
	l.phase("sim.traced_run", 0, func(id int) error {
		root = id
		var first []field
		rep := func(name string, profile *bytes.Buffer) (simRep, bool) {
			var rp simRep
			_, err := l.phase(name, id, func(int) error {
				var err error
				rp, err = runRep(cfg, profile)
				return err
			})
			if err != nil {
				r.op(err)
				return rp, false
			}
			r.op(checkResult(r, d, cfg, rp.res, first))
			if first == nil {
				first = resultFields(rp.res)
			}
			return rp, true
		}
		// The first repetition of a process also pays for growing the
		// heap; it warms the process and is checked, not timed.
		rep("sim.Machine.Run(warm-up)", nil)
		for i := 0; i < maxProfiledReps && prof.kept() < minProfileSamples && !(r.o.tiny && i > 0); i++ {
			var buf bytes.Buffer
			rp, ok := rep("sim.Machine.Run(profiled)", &buf)
			if !ok {
				break
			}
			if i == 0 {
				profiledRun = rp.run
			}
			one, err := parseProfile(buf.Bytes())
			if !r.op(err) {
				break
			}
			prof.samples = append(prof.samples, one.samples...)
		}
		base, baseOK = rep("sim.Machine.Run(untraced)", nil)
		return nil
	})
	if !baseOK {
		r.zeroUnset()
		return nil
	}
	res := base.res
	m := base.m
	eff := m.EffectiveConfig()
	accesses := accessesPerRun(cfg)
	hostNS := float64(base.run.Nanoseconds()) / accesses
	r.set("sim.host_ns_per_access", "ns", hostNS)
	r.set("trace.overhead_frac", "ratio", float64(profiledRun.Nanoseconds())/accesses/hostNS-1)

	rescan, err := l.phase("sim.Machine.Prepopulate(rescan)", root, func(int) error { return m.Prepopulate() })
	if err != nil {
		return err
	}
	rescanNS := float64(rescan.Nanoseconds()) / accesses

	n, batch := replayLen(r.o.tiny)
	ic, err := replaySim(r, d, m, eff, root, n, batch)
	if err != nil {
		return err
	}
	if err := firstTouch(r, d, cfg, root, n/5, batch); err != nil {
		return err
	}

	// Calls per access come from the untraced run's counters: one TLB
	// access, one prefault and one data access per access; Walks /
	// MemAccesses walks; and (Cores-1) co-runner injections per data
	// access that missed L2, each a workload Next, a prefault, a host
	// translation and a remote L3 access.
	acc := float64(res.MemAccesses)
	walksPA := float64(res.Walks) / acc
	injPA := float64(eff.Cores-1) * float64(res.L2Stats.Misses[cachesim.SourceCPU]) / acc
	spans := map[string]float64{
		"workload":  ic.next * (1 + injPA),
		"tlbsim":    ic.tlb,
		"translate": ic.prefault + injPA*ic.inject,
		"walker":    walksPA * ic.walk,
		"cachesim":  ic.access + injPA*ic.remote,
		"rescan":    rescanNS,
	}
	var attributed float64
	for _, v := range spans {
		attributed += v
	}
	self := hostNS - attributed
	spans["self"] = self
	r.set("sim.remote_injections_per_access", "ratio", injPA)
	r.set("sim.attributed_ns_per_access", "ns", attributed)
	r.set("sim.driver_self_ns_per_access", "ns", self)
	r.set("sim.attributed_fraction", "ratio", attributed/hostNS)
	r.set("core.walks_per_access", "ratio", walksPA)
	r.set("sim.ipc", "ratio", res.IPC())
	r.set("sim.walk_cycles", "cycles", ratio(float64(res.WalkCycles), float64(res.Walks)))
	r.set("tlbsim.l1_hit_rate", "ratio", res.L1TLB.HitRate())
	r.set("tlbsim.l2_hit_rate", "ratio", res.L2TLB.HitRate())
	for i, lv := range []cachesim.LevelStats{res.L1Stats, res.L2Stats, res.L3Stats} {
		for _, src := range []cachesim.Source{cachesim.SourceCPU, cachesim.SourceMMU} {
			r.set(fmt.Sprintf("cachesim.l%d_miss_rate_%s", i+1, srcName(src)), "ratio",
				ratio(float64(lv.Misses[src]), float64(lv.Accesses[src])))
		}
	}
	if res.NestedECPT != nil {
		r.set("core.stc_hit_rate", "ratio", res.NestedECPT.STC.HitRate())
	}

	r.note("attribution       host %.1f ns/access = %s", hostNS, attributionText(spans, hostNS))
	compareProfile(r, prof, spans, hostNS)
	r.zeroUnset()
	return nil
}

func srcName(s cachesim.Source) string {
	if s == cachesim.SourceMMU {
		return "mmu"
	}
	return "cpu"
}

// attributionText renders the span attribution as ns/access per group.
func attributionText(spans map[string]float64, hostNS float64) string {
	var b bytes.Buffer
	for _, g := range profileGroups {
		fmt.Fprintf(&b, "%s %.1f (%.0f%%) ", g, spans[g], 100*spans[g]/hostNS)
	}
	return b.String()
}

// resolve resolves each address through m's guest and host tables.
func resolve(m *sim.Machine, vas []addr.GVA) (replay, error) {
	n := len(vas)
	rp := replay{va: vas, gpa: make([]addr.GPA, n), hpa: make([]addr.HPA, n), size: make([]addr.PageSize, n)}
	for i, va := range vas {
		gpa, gs, ok := m.Kernel().Translate(va)
		if !ok {
			return rp, fmt.Errorf("replay: %#x not mapped in the guest", va)
		}
		hpa, hs, ok := m.Hypervisor().Translate(gpa)
		if !ok {
			return rp, fmt.Errorf("replay: %#x not mapped in the host", gpa)
		}
		rp.gpa[i], rp.hpa[i], rp.size[i] = gpa, hpa, min(gs, hs)
	}
	return rp, nil
}

// replaySim times each layer's entry points on the warmed machine m:
// the calls the simulator's step makes, interleaved as it makes them
// (replayInContext), for the attribution it returns and those layers'
// metrics; the other entry points in loops of their own.
func replaySim(r *run, d simDesign, m *sim.Machine, eff sim.Config, root, n, batch int) (ic layerTimes, err error) {
	l := r.spans
	var rp, remote replay
	_, err = l.phase("replay", root, func(id int) error {
		// The workload's own stream, from a second generator with the
		// machine's options; Next is timed while it is drawn.
		gen, err := workload.New(eff.Workload, eff.WorkloadOpts)
		if err != nil {
			return err
		}
		vas := make([]addr.GVA, n)
		next := l.timeCalls("workload.Next", id, n, batch, func(i int) { vas[i] = gen.Next().VA })
		if rp, err = resolve(m, vas); err != nil {
			return err
		}
		// The first co-runner's stream (sim.NewMachine's seed rule).
		opts := eff.WorkloadOpts
		opts.Seed += 7919
		cgen, err := workload.New(eff.Workload, opts)
		if err != nil {
			return err
		}
		cvas := make([]addr.GVA, n/2)
		for i := range cvas {
			cvas[i] = cgen.Next().VA
		}
		if remote, err = resolve(m, cvas); err != nil {
			return err
		}

		// The guest and host halves of the prefault, each in a loop of
		// its own: the in-context replay below times them only together.
		kern, hyp := m.Kernel(), m.Hypervisor()
		var faults int
		r.set("kernel.touch_ns", "ns", l.timeCalls("kernel.Touch", id, n, batch, func(i int) {
			if f, _, err := kern.Touch(rp.va[i]); f || err != nil {
				faults++
			}
		}))
		r.set("kernel.translate_ns", "ns", l.timeCalls("kernel.Translate", id, n, batch, func(i int) {
			g, _, _ := kern.Translate(rp.va[i])
			sink += uint64(g)
		}))
		r.set("hypervisor.ensure_mapped_ns", "ns", l.timeCalls("hypervisor.EnsureMapped", id, n, batch, func(i int) {
			if f, err := hyp.EnsureMapped(rp.gpa[i], false); f || err != nil {
				faults++
			}
		}))
		r.set("hypervisor.translate_ns", "ns", l.timeCalls("hypervisor.Translate", id, n, batch, func(i int) {
			h, _, _ := hyp.Translate(rp.gpa[i])
			sink += uint64(h)
		}))
		r.ops(4*n, faults, faultErr(faults))
		r.set("workload.next_ns", "ns", next)

		h := cachesim.NewHierarchy(eff.Hierarchy)
		ic = replayInContext(r, m, eff, h, rp, remote, id, n, batch)
		replayParallel(r, h, rp, id, n, batch)
		replayMMUCache(r, d, eff, rp, id, n, batch)
		if d == designNECPT {
			replayECPT(r, m, rp, id, n/2, batch)
		} else {
			replayRadix(r, m, rp, id, n/2, batch)
		}
		ic.next = next
		return nil
	})
	return ic, err
}

func faultErr(n int) error {
	if n == 0 {
		return nil
	}
	return fmt.Errorf("replay: %d calls on mapped pages faulted or failed", n)
}

// replayParallel times AccessParallel on probe groups drawn from the
// second half of rp, on the hierarchy the in-context replay warmed.
// Walks make these calls; the in-context replay charges them to the
// walker.
func replayParallel(r *run, h *cachesim.Hierarchy, rp replay, parent, n, batch int) {
	const group = 3 // one probe per ECPT way (d = 3)
	half := n / 2
	now := uint64(1) << 41 // after every access of the in-context replay
	r.set("cachesim.access_parallel_ns", "ns", r.spans.timeCalls("cachesim.Hierarchy.AccessParallel", parent, (n-half)/group, max(batch/group, 1), func(i int) {
		now += 100
		sink += h.AccessParallel(now, rp.hpa[half+i*group:half+(i+1)*group], cachesim.SourceMMU)
	}))
	r.set("cachesim.parallel_group_size", "count", group)
}

// The simulator's per-access calls, in the order its step makes them.
const (
	partPrefault = iota
	partTLB
	partWalk
	partAccess
	partInjectTranslate
	partRemote
	numParts
)

var partNames = [numParts]string{"prefault", "tlbsim", "walker", "cachesim.access", "inject.translate", "cachesim.remote"}

// replayInContext measures what each of the simulator's per-access
// calls costs in context. Timed in a loop of its own, a call keeps its
// code and table lines in the host's caches; interleaved with the other
// layers, as in the simulator, it does not, and a walk finds warm the
// table lines its access's prefault has just read. So the timed half of
// rp is replayed the way the simulator's step interleaves the layers:
// per access the prefault, a TLB access (and a fill on a miss), a walk
// on a TLB miss, the data access, and, on an access that reached L3,
// one injection per co-runner (its translation calls, then a remote
// access). Pass k makes only the first k of those parts; part k's cost
// per call is pass k+1 minus pass k on the same batch, divided by the
// part's calls in the batch, as the median over batches and rounds. A
// part is thus charged for the host cache misses it takes first, as a
// CPU profile charges them, and the parts add up to the whole replay.
// Which accesses walk and inject is fixed once, from replica TLB and
// cache state, so every pass makes the same calls. The workload's Next
// is not replayed; the caller sets its time alone. The TLB, walk, data
// and remote access costs are also the per-layer metrics of those
// layers; h is the replica hierarchy, left warm for the caller.
func replayInContext(r *run, m *sim.Machine, eff sim.Config, h *cachesim.Hierarchy, rp, remote replay, parent, n, batch int) layerTimes {
	const rounds = 4
	kern, hyp, w := m.Kernel(), m.Hypervisor(), m.Walker()
	tlb := tlbsim.New(eff.TLB)
	half := n / 2
	walks := make([]bool, n)
	injectAt := make([]int, n+1) // injections before access i
	now := uint64(0)
	for i := 0; i < n; i++ {
		now += 100
		if !tlb.Access(rp.va[i]).Hit() {
			tlb.Fill(rp.va[i], rp.size[i], addr.PageBase(rp.hpa[i], rp.size[i]))
			walks[i] = true
		}
		injectAt[i+1] = injectAt[i]
		if _, served := h.Access(now, rp.hpa[i], cachesim.SourceCPU); served >= cachesim.ServedL3 {
			injectAt[i+1] += eff.Cores - 1
		}
	}
	var failed, walked, refs int
	var errs []error
	pass := func(k, lo, hi int) {
		for i := lo; i < hi; i++ {
			now += 100
			va := rp.va[i]
			if k > partPrefault && !prefault(kern, hyp, va) {
				failed++
			}
			if k > partTLB && !tlb.Access(va).Hit() {
				tlb.Fill(va, rp.size[i], addr.PageBase(rp.hpa[i], rp.size[i]))
			}
			if k > partWalk && walks[i] {
				wres, err := w.Walk(now, va)
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, err)
					}
				}
				walked++
				refs += wres.Accesses
			}
			if k > partAccess {
				lat, _ := h.Access(now, rp.hpa[i], cachesim.SourceCPU)
				sink += lat
			}
			for j := injectAt[i]; j < injectAt[i+1] && k > partInjectTranslate; j++ {
				v := j % len(remote.va)
				_, _, err1 := kern.Touch(remote.va[v])
				g, _, _ := kern.Translate(remote.va[v])
				_, err2 := hyp.EnsureMapped(g, false)
				hpa, _, ok := hyp.Translate(g)
				if err1 != nil || err2 != nil || !ok {
					failed++
				}
				sink += uint64(hpa)
				if k > partRemote {
					sink += h.AccessRemote(now, remote.hpa[v])
				}
			}
		}
	}
	var perCall [numParts][]float64
	for round := 0; round < rounds; round++ {
		for lo := half; lo < n; lo += batch {
			hi := min(lo+batch, n)
			var walking int
			for i := lo; i < hi; i++ {
				if walks[i] {
					walking++
				}
			}
			injected := injectAt[hi] - injectAt[lo]
			calls := [numParts]int{hi - lo, hi - lo, walking, hi - lo, injected, injected}
			// A pass finds warm what the pass before it on the batch
			// read, so the passes run forward in even rounds and
			// backward in odd ones.
			var took [numParts + 1]time.Duration
			for j := 0; j <= numParts; j++ {
				k := j
				if round%2 == 1 {
					k = numParts - j
				}
				name := "replay.in_context(none)"
				if k > 0 {
					name = "replay.in_context(to " + partNames[k-1] + ")"
				}
				start := time.Now()
				pass(k, lo, hi)
				end := time.Now()
				r.spans.record(name, parent, start, end, hi-lo)
				took[k] = end.Sub(start)
			}
			for k := 1; k <= numParts; k++ {
				if calls[k-1] > 0 {
					perCall[k-1] = append(perCall[k-1], float64((took[k]-took[k-1]).Nanoseconds())/float64(calls[k-1]))
				}
			}
		}
	}
	r.ops(rounds*numParts*(n-half), failed, errors.Join(append(errs, faultErr(failed))...))
	ic := layerTimes{
		prefault: median(perCall[partPrefault]),
		tlb:      median(perCall[partTLB]),
		walk:     median(perCall[partWalk]),
		access:   median(perCall[partAccess]),
		inject:   median(perCall[partInjectTranslate]),
		remote:   median(perCall[partRemote]),
	}
	r.set("tlbsim.access_ns", "ns", ic.tlb)
	r.set("core.walk_ns", "ns", ic.walk)
	r.set("core.mem_refs_per_walk", "count", ratio(float64(refs), float64(walked)))
	r.set("cachesim.access_ns", "ns", ic.access)
	r.set("cachesim.access_remote_ns", "ns", ic.remote)
	r.note("in context        ns/call: prefault %.1f tlbsim %.1f walk %.1f access %.1f inject-translate %.1f remote %.1f",
		ic.prefault, ic.tlb, ic.walk, ic.access, ic.inject, ic.remote)
	return ic
}

// prefault makes the calls the simulator's per-access prefault makes on
// a mapped page: the guest Touch and Translate, then the host
// EnsureMapped. It reports whether they all succeeded.
func prefault(kern *kernel.Kernel, hyp *hypervisor.Hypervisor, va addr.GVA) bool {
	_, _, err1 := kern.Touch(va)
	g, _, _ := kern.Translate(va)
	_, err2 := hyp.EnsureMapped(g, false)
	return err1 == nil && err2 == nil
}

// replayMMUCache times a replica MMU cache of the walker's size keyed
// by guest-physical page: the STC on Nested ECPT, the nested TLB on
// Nested Radix.
func replayMMUCache(r *run, d simDesign, eff sim.Config, rp replay, parent, n, batch int) {
	capacity := eff.NestedECPT.STCEntries
	if d == designNRadix {
		capacity = eff.RadixWalk.NTLBEntries
	}
	c := mmucache.New[addr.GPA, addr.HPA]("replica", capacity)
	look := func(i int) {
		k := addr.PageBase(rp.gpa[i], addr.Page4K)
		if _, ok := c.Lookup(k); !ok {
			c.Insert(k, addr.PageBase(rp.hpa[i], addr.Page4K))
		}
	}
	half := n / 2
	for i := 0; i < half; i++ {
		look(i)
	}
	r.set("mmucache.lookup_ns", "ns", r.spans.timeCalls("mmucache.Cache.Lookup", parent, n-half, batch, func(i int) { look(half + i) }))
}

// replayECPT times the elastic cuckoo tables' read paths on the warmed
// machine: writer-side Set.Lookup (guest and host), probe generation,
// the CWT query, and the hash itself. It also reports the tables'
// lifetime insert statistics.
func replayECPT(r *run, m *sim.Machine, rp replay, parent, n, batch int) {
	l := r.spans
	gset, hset := m.Kernel().ECPTs(), m.Hypervisor().ECPTs()
	h := vhash.New(0, 0)
	r.set("vhash.hash_ns", "ns", l.timeCalls("vhash.Func.Hash", parent, n, batch, func(i int) {
		sink += h.Hash(addr.VPN(rp.va[i], addr.Page4K))
	}))
	g := l.timeCalls("ecpt.Set.Lookup(guest)", parent, n, batch, func(i int) {
		f, _, _ := gset.Lookup(rp.va[i])
		sink += uint64(f)
	})
	hs := l.timeCalls("ecpt.Set.Lookup(host)", parent, n, batch, func(i int) {
		f, _, _ := hset.Lookup(rp.gpa[i])
		sink += uint64(f)
	})
	r.set("ecpt.set_lookup_ns", "ns", (g+hs)/2)
	gt, ht := gset.Table(addr.Page4K), hset.Table(addr.Page4K)
	var gp []ecpt.Probe[addr.GPA]
	var hp []ecpt.Probe[addr.HPA]
	g = l.timeCalls("ecpt.Table.AppendProbes(guest)", parent, n, batch, func(i int) {
		gp = gt.AppendProbes(gp[:0], addr.VPN(rp.va[i], addr.Page4K), ecpt.AllWays)
	})
	hs = l.timeCalls("ecpt.Table.AppendProbes(host)", parent, n, batch, func(i int) {
		hp = ht.AppendProbes(hp[:0], addr.VPN(rp.gpa[i], addr.Page4K), ecpt.AllWays)
	})
	r.set("ecpt.append_probes_ns", "ns", (g+hs)/2)
	gcwt, hcwt := gset.Table(addr.Page2M).CWT(), ht.CWT()
	var gi ecpt.Info[addr.GPA]
	var hi ecpt.Info[addr.HPA]
	g = l.timeCalls("ecpt.CWT.QueryInto(guest PMD)", parent, n, batch, func(i int) {
		gcwt.QueryInto(addr.VPN(rp.va[i], addr.Page2M), &gi)
	})
	hs = l.timeCalls("ecpt.CWT.QueryInto(host PTE)", parent, n, batch, func(i int) {
		hcwt.QueryInto(addr.VPN(rp.gpa[i], addr.Page4K), &hi)
	})
	r.set("ecpt.cwt_query_ns", "ns", (g+hs)/2)

	var st ecpt.Stats
	for _, s := range addr.Sizes() {
		for _, t := range []ecpt.Stats{gset.Table(s).Stats(), hset.Table(s).Stats()} {
			st.Inserts += t.Inserts
			st.Kicks += t.Kicks
			st.Resizes += t.Resizes
		}
	}
	r.set("ecpt.kicks_per_insert", "ratio", ratio(float64(st.Kicks), float64(st.Inserts)))
	r.set("ecpt.resizes", "count", float64(st.Resizes))
}

// replayRadix times the radix tables' functional lookup.
func replayRadix(r *run, m *sim.Machine, rp replay, parent, n, batch int) {
	gr, hr := m.Kernel().Radix(), m.Hypervisor().Radix()
	g := r.spans.timeCalls("radix.Table.Lookup(guest)", parent, n, batch, func(i int) {
		f, _, _ := gr.Lookup(rp.va[i])
		sink += uint64(f)
	})
	h := r.spans.timeCalls("radix.Table.Lookup(host)", parent, n, batch, func(i int) {
		f, _, _ := hr.Lookup(rp.gpa[i])
		sink += uint64(f)
	})
	r.set("radix.lookup_ns", "ns", (g+h)/2)
}

// firstTouch times first touches (guest page faults) and raw page-table
// inserts on a fresh machine with the same configuration: the set-up
// work Prepopulate does. The warmed machine cannot be used, since all
// of its pages are mapped, and pre-touching pages of the measured
// machine would change its frame layout.
func firstTouch(r *run, d simDesign, cfg sim.Config, parent, n, batch int) error {
	l := r.spans
	_, err := l.phase("first_touch", parent, func(id int) error {
		m, err := sim.NewMachine(cfg)
		if err != nil {
			return err
		}
		gen, err := workload.New(cfg.Workload, m.EffectiveConfig().WorkloadOpts)
		if err != nil {
			return err
		}
		var pages []addr.GVA
		for _, v := range gen.VMAs() {
			for off := uint64(0); off+addr.Page4K.Bytes() <= v.Size && len(pages) < 2*n; off += addr.Page4K.Bytes() {
				pages = append(pages, addr.Add(v.Base, off))
			}
		}
		n = min(n, len(pages)/2)
		kern := m.Kernel()
		var bad int
		r.set("kernel.fault_ns", "ns", l.timeCalls("kernel.Touch(first)", id, n, batch, func(i int) {
			if f, _, err := kern.Touch(pages[i]); !f || err != nil {
				bad++
			}
		}))
		mapped := pages[n : 2*n]
		frame := func(i int) addr.GPA { return addr.GPA(uint64(1)<<40 + uint64(i)<<12) }
		if d == designNECPT {
			set := kern.ECPTs()
			r.set("ecpt.map_ns", "ns", l.timeCalls("ecpt.Set.Map", id, n, batch, func(i int) {
				set.Map(mapped[i], addr.Page4K, frame(i))
			}))
		} else {
			rt := kern.Radix()
			r.set("radix.map_ns", "ns", l.timeCalls("radix.Table.Map", id, n, batch, func(i int) {
				if err := rt.Map(mapped[i], addr.Page4K, frame(i)); err != nil {
					bad++
				}
			}))
		}
		r.ops(2*n, bad, faultErr(bad))
		return nil
	})
	return err
}

// compareProfile sets the profile cross-check metrics: the flat
// per-package shares, the shares by entry point next to the span
// attribution, and whether the two agree on the largest layer. p holds
// the samples of every profiled repetition.
func compareProfile(r *run, p *cpuProfile, spans map[string]float64, hostNS float64) {
	groups, flat, total, n := profileShares(p)
	if total == 0 {
		r.note("profile           no samples of Machine.Run")
		return
	}
	for _, pkg := range flatPackages {
		r.set("profile.flat_"+pkg+"_frac", "ratio", flat[pkg])
	}
	largest := func(shares map[string]float64) string {
		best := ""
		for _, g := range profileGroups {
			if g != "self" && (best == "" || shares[g] > shares[best]) {
				best = g
			}
		}
		return best
	}
	spanShare := map[string]float64{}
	var gap float64
	for _, g := range profileGroups {
		spanShare[g] = spans[g] / hostNS
		r.set("spans."+g+"_frac", "ratio", spanShare[g])
		r.set("profile."+g+"_frac", "ratio", groups[g])
		if g != "self" {
			gap = max(gap, abs(spanShare[g]-groups[g]))
		}
	}
	ls, lp := largest(spanShare), largest(groups)
	lead, tol, tied := withinSampling(groups, lp, ls, n)
	agree := 0.0
	if tied {
		agree = 1
	}
	r.set("profile.largest_agrees", "bool", agree)
	r.set("profile.max_gap_frac", "ratio", gap)
	r.note("profile           %d samples (%.2fs); largest layer: spans %s, profile %s (leads it by %.3f, tolerance %.3f)",
		n, float64(total)/1e9, ls, lp, lead, tol)
	residual := abs(spanShare["self"])
	if gap > residual {
		r.note("profile           DISAGREES with the spans: a layer's shares differ by %.2f, more than the residual %.2f", gap, residual)
	}
	if !tied {
		r.note("profile           DISAGREES with the spans on the largest layer")
	}
}

// withinSampling reports whether a profile of n samples cannot rank
// group b below group a: b's share trails a's by lead, no more than tol,
// two standard errors of the difference of two shares of n samples.
func withinSampling(shares map[string]float64, a, b string, n int) (lead, tol float64, ok bool) {
	lead = shares[a] - shares[b]
	tol = 2 * math.Sqrt((shares[a]+shares[b]-lead*lead)/float64(n))
	return lead, tol, lead <= tol
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
