package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/sim"
	"nestedecpt/internal/stats"
)

// field is one named group of a run's simulated statistics, rendered
// as text with every digit.
type field struct {
	name  string
	value string
}

// resultFields renders every simulated statistic a speed change must
// leave unchanged: cycles, instructions, walks and the walk-latency
// histogram, TLB, per-level cache and DRAM counters, and page-table
// bytes.
func resultFields(r *sim.Result) []field {
	level := func(s cachesim.LevelStats) string {
		return fmt.Sprintf("acc=%v miss=%v mshr=%v/%d/%d", s.Accesses, s.Misses,
			s.MSHROccupancy.Sum, s.MSHROccupancy.Count, s.MSHRMax)
	}
	fs := []field{
		{"cycles", fmt.Sprint(r.Cycles)},
		{"instructions", fmt.Sprint(r.Instructions)},
		{"mem_accesses", fmt.Sprint(r.MemAccesses)},
		{"walks", fmt.Sprintf("%d cycles=%d mmu_busy=%d mmu_acc=%d", r.Walks, r.WalkCycles, r.MMUBusyCycles, r.MMUAccesses)},
		{"walk_histogram", histText(r.WalkLatency)},
		{"faults", fmt.Sprintf("guest=%d host=%d", r.GuestFaults, r.HostFaults)},
		{"l1_tlb", counterText(r.L1TLB)},
		{"l2_tlb", counterText(r.L2TLB)},
		{"l1_cache", level(r.L1Stats)},
		{"l2_cache", level(r.L2Stats)},
		{"l3_cache", level(r.L3Stats)},
		{"dram", fmt.Sprintf("%+v", r.DRAM)},
		{"pt_bytes", fmt.Sprintf("guest=%d host=%d entries=%d footprint=%d", r.GuestPTBytes, r.HostPTBytes, r.PTEntries, r.FootprintBytes)},
	}
	if st := r.NestedECPT; st != nil {
		fs = append(fs, field{"nested_ecpt", fmt.Sprintf("walks=%d stc=%s par=%v/%v/%v adapt=%d guest=%s host=%s",
			st.Walks, counterText(st.STC), st.Par1, st.Par2, st.Par3, st.AdaptDisabled,
			st.GuestClasses.String(), st.HostClasses.String())})
	}
	return fs
}

func counterText(c stats.Counter) string { return fmt.Sprintf("%d/%d", c.Hits, c.Misses) }

func histText(h *stats.Histogram) string {
	if h == nil {
		return "nil"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d max=%d mean=%v bins=", h.Count(), h.Max(), h.Mean())
	for i := 0; i < h.NumBins(); i++ {
		_, p := h.Bin(i)
		fmt.Fprintf(&b, "%v,", p)
	}
	return b.String()
}

// hashText is the short digest pinned for one field.
func hashText(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// digest maps each field name to the hash of its value.
func digest(fs []field) map[string]string {
	d := make(map[string]string, len(fs))
	for _, f := range fs {
		d[f.name] = hashText(f.value)
	}
	return d
}

// diffFields names every field whose value differs between two runs
// of the same configuration.
func diffFields(a, b []field) []string {
	var bad []string
	bv := map[string]string{}
	for _, f := range b {
		bv[f.name] = f.value
	}
	for _, f := range a {
		if v, ok := bv[f.name]; !ok || v != f.value {
			bad = append(bad, f.name)
		}
	}
	if len(a) != len(b) && len(bad) == 0 {
		bad = append(bad, "field count")
	}
	return bad
}

// checkPinned compares a run's digest against the digest pinned for
// its workload and seed. It returns the mismatching field names, and
// pinned=false when no digest is pinned for that pair.
func checkPinned(table map[pinKey]map[string]string, key pinKey, got map[string]string) (bad []string, pinned bool) {
	want, ok := table[key]
	if !ok {
		return nil, false
	}
	for _, name := range sortedKeys(want) {
		if got[name] != want[name] {
			bad = append(bad, name)
		}
	}
	for _, name := range sortedKeys(got) {
		if _, ok := want[name]; !ok {
			bad = append(bad, name+" (unpinned)")
		}
	}
	return bad, true
}

// pinKey names one pinned digest: a workload at a seed.
type pinKey struct {
	workload string
	seed     uint64
}

// Pinned seeds: the default seed and one held out while the benchmark
// was written, so a later claim can be checked on a seed its author
// did not tune against.
const (
	defaultSeed = 42
	heldOutSeed = 1009
)
