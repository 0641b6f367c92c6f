package main

// decl declares one metric the benchmark reports: BENCHMARK.json lists
// the same names and units, and the tests hold the two in step.
type decl struct {
	name string
	unit string
}

// endToEnd are the untraced metrics every workload reports. Each name
// means the same thing on every workload; README.md gives the
// per-workload definition ("ops" are simulated accesses on sim-* and
// on the sweep, translations on serve).
var endToEnd = []decl{
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// profileGroups are the layers the span attribution and the CPU
// profile are compared on: each is a set of public entry points the
// simulator's driver calls (README.md, "Profile cross-check").
// "translate" is the functional guest and host translation (kernel and
// hypervisor entry points), whose two halves run the same table
// lookups and are too close in cost to rank apart.
var profileGroups = []string{"translate", "walker", "cachesim", "tlbsim", "workload", "rescan", "self"}

// flatPackages are the packages the profile's flat shares are reported
// for; everything else folds into "other".
var flatPackages = []string{"ecpt", "vhash", "radix", "cachesim", "core", "mmucache", "kernel", "hypervisor", "memsim", "tlbsim", "workload", "sim", "runtime", "other"}

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports it as 0 (README.md lists which workload
// fills which metric).
var perLayer = buildPerLayer()

func buildPerLayer() []decl {
	d := []decl{
		{"workload.next_ns", "ns"},
		{"tlbsim.access_ns", "ns"},
		{"tlbsim.l1_hit_rate", "ratio"},
		{"tlbsim.l2_hit_rate", "ratio"},
		{"vhash.hash_ns", "ns"},
		{"ecpt.set_lookup_ns", "ns"},
		{"ecpt.append_probes_ns", "ns"},
		{"ecpt.cwt_query_ns", "ns"},
		{"ecpt.map_ns", "ns"},
		{"ecpt.kicks_per_insert", "ratio"},
		{"ecpt.resizes", "count"},
		{"ecpt.publish_ns", "ns"},
		{"radix.lookup_ns", "ns"},
		{"radix.map_ns", "ns"},
		{"kernel.touch_ns", "ns"},
		{"kernel.translate_ns", "ns"},
		{"kernel.fault_ns", "ns"},
		{"hypervisor.ensure_mapped_ns", "ns"},
		{"hypervisor.translate_ns", "ns"},
		{"mmucache.lookup_ns", "ns"},
		{"core.stc_hit_rate", "ratio"},
		{"cachesim.access_ns", "ns"},
		{"cachesim.access_parallel_ns", "ns"},
		{"cachesim.parallel_group_size", "count"},
		{"cachesim.access_remote_ns", "ns"},
		{"cachesim.l1_miss_rate_cpu", "ratio"},
		{"cachesim.l1_miss_rate_mmu", "ratio"},
		{"cachesim.l2_miss_rate_cpu", "ratio"},
		{"cachesim.l2_miss_rate_mmu", "ratio"},
		{"cachesim.l3_miss_rate_cpu", "ratio"},
		{"cachesim.l3_miss_rate_mmu", "ratio"},
		{"core.walk_ns", "ns"},
		{"core.walks_per_access", "ratio"},
		{"core.mem_refs_per_walk", "count"},
		{"sim.ipc", "ratio"},
		{"sim.walk_cycles", "cycles"},
		{"sim.remote_injections_per_access", "ratio"},
		{"sim.host_ns_per_access", "ns"},
		{"sim.attributed_ns_per_access", "ns"},
		{"sim.driver_self_ns_per_access", "ns"},
		{"sim.attributed_fraction", "ratio"},
		{"runner.sweep_s", "s"},
		{"runner.run_s_p50", "s"},
		{"runner.run_s_max", "s"},
		{"runner.parallel_efficiency", "ratio"},
		{"runner.runs", "count"},
		{"report.fig9_necpt_speedup", "ratio"},
		{"serve.translations_per_s", "1/s"},
		{"serve.publishes_per_s", "1/s"},
		{"serve.churn_ops_per_s", "1/s"},
		{"serve.retries_per_mtrans", "1/Mop"},
		{"serve.fairness", "ratio"},
		{"serve.pending_reclaims", "count"},
		{"serve.p99_cycles", "cycles"},
		{"serve.audit_findings", "count"},
		{"trace.overhead_frac", "ratio"},
		{"profile.largest_agrees", "bool"},
		{"profile.max_gap_frac", "ratio"},
	}
	for _, g := range profileGroups {
		d = append(d, decl{"spans." + g + "_frac", "ratio"}, decl{"profile." + g + "_frac", "ratio"})
	}
	for _, p := range flatPackages {
		d = append(d, decl{"profile.flat_" + p + "_frac", "ratio"})
	}
	return d
}

// zeroUnset reports every declared per-layer metric the workload did
// not fill as 0: the layer does not run on this workload.
func (r *run) zeroUnset() {
	for _, d := range perLayer {
		if _, ok := r.metrics[d.name]; !ok {
			r.set(d.name, d.unit, 0)
		}
	}
}
