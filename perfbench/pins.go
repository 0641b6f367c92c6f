package main

// pinnedSim holds the per-field digests (digest.go) of the sim-*
// workloads' results at the pinned seeds. A change that only makes the
// simulator faster must leave them as they are; a change to the modelled
// design re-pins them and says why.
var pinnedSim = map[pinKey]map[string]string{
	{"sim-gups-necpt", 42}: {
		"cycles":         "396c25bfe33da97f",
		"dram":           "17c41e56abd9e168",
		"faults":         "0a07311a9d9630e1",
		"instructions":   "b035fface58e9ed3",
		"l1_cache":       "27c51837c5bb2001",
		"l1_tlb":         "219289b08e8b8ea6",
		"l2_cache":       "f62e57354cf15194",
		"l2_tlb":         "c478cabb203feda4",
		"l3_cache":       "fea8d337b59cdfc5",
		"mem_accesses":   "ab0cabdc15e2cab6",
		"nested_ecpt":    "ca259bdf80b8b7f7",
		"pt_bytes":       "2dad588e57ad93a1",
		"walk_histogram": "6125e5cebd5c31b6",
		"walks":          "d75a20159e3186aa",
	},
	{"sim-gups-nradix", 42}: {
		"cycles":         "c5d6b93d6372c4f9",
		"dram":           "38ea0e84e84855a5",
		"faults":         "0a07311a9d9630e1",
		"instructions":   "b035fface58e9ed3",
		"l1_cache":       "cc23ae4b784379f3",
		"l1_tlb":         "219289b08e8b8ea6",
		"l2_cache":       "aff706a6791cd0aa",
		"l2_tlb":         "c478cabb203feda4",
		"l3_cache":       "d4dccf1fe53638d8",
		"mem_accesses":   "ab0cabdc15e2cab6",
		"pt_bytes":       "3df5b203d99ae990",
		"walk_histogram": "b6fcc01eae58aeaa",
		"walks":          "4a6dc63a7fcd82c9",
	},
	{"sim-gups-necpt", 1009}: {
		"cycles":         "33bb0b9ed410df73",
		"dram":           "010e202d1e9f94fc",
		"faults":         "0a07311a9d9630e1",
		"instructions":   "b035fface58e9ed3",
		"l1_cache":       "d4cf37c43d729e88",
		"l1_tlb":         "219289b08e8b8ea6",
		"l2_cache":       "285a5b4643b54b9e",
		"l2_tlb":         "1a888eab4095b020",
		"l3_cache":       "6ce172ddfee552e7",
		"mem_accesses":   "ab0cabdc15e2cab6",
		"nested_ecpt":    "8410d4543804b066",
		"pt_bytes":       "2dad588e57ad93a1",
		"walk_histogram": "91da906600248e5e",
		"walks":          "55f4fef5203994cc",
	},
	{"sim-gups-nradix", 1009}: {
		"cycles":         "c39dbe70abaaa31a",
		"dram":           "0897cfca0d2c468a",
		"faults":         "0a07311a9d9630e1",
		"instructions":   "b035fface58e9ed3",
		"l1_cache":       "0b924c5312e7c73f",
		"l1_tlb":         "219289b08e8b8ea6",
		"l2_cache":       "350393164c5c53f7",
		"l2_tlb":         "1a888eab4095b020",
		"l3_cache":       "cbd9e8e2c260171d",
		"mem_accesses":   "ab0cabdc15e2cab6",
		"pt_bytes":       "3df5b203d99ae990",
		"walk_histogram": "e089d7b22aff2531",
		"walks":          "6257de3dc796add1",
	},
}

// pinnedSweep holds the digest of the rendered Figure 9 at the
// sweep's settings (sweepSettings) and the pinned seeds.
var pinnedSweep = map[pinKey]string{
	{"sweep-fig9-quick", 42}:   "fc48de540116f8cb",
	{"sweep-fig9-quick", 1009}: "c3830ef2424f700e",
}
