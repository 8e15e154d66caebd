package main

import (
	"bytes"
	"fmt"
	"sort"
)

// batchRound times one engine job of a batch workload, checks its output
// and books the result; ok is false when the round failed.
func batchRound(m *meter, r, items int, job func() (jobStats, error), check func() error) (st jobStats, ok bool) {
	counting := m.counting()
	m.start()
	st, err := job()
	m.stop(int64(items))
	if err == nil {
		err = check()
	}
	if err != nil {
		m.fail(1, "round %d: %v", r, err)
		return st, false
	}
	m.ok(1)
	if counting {
		m.simNs += st.simNs
		m.wireBytes += st.wireBytes
	}
	return st, true
}

// ---- sort_wide -------------------------------------------------------------

type sortInst struct {
	cfg  runCfg
	n    int // records per round
	fp   *fingerprint
	last jobStats
}

func setupSort(cfg runCfg) (instance, error) {
	per := scaled(200_000, cfg.scale, 16*sortSourceParts) / sortSourceParts
	s := &sortInst{cfg: cfg, n: per * sortSourceParts, fp: newFingerprint()}
	in, sum := genSortRound(cfg.seed, -1, s.n, sortSourceParts)
	s.fp.u64(uint64(s.n))
	s.fp.u64(sum)
	out, _, err := sutSortJob(clusterConfig(cfg.seed, "lz"), in, nil)
	if err != nil {
		return nil, err
	}
	return s, checkSorted(out, s.n, sum)
}

func (s *sortInst) fingerprint() uint64 { return s.fp.h }

func (s *sortInst) drive(m *meter) error {
	m.begin()
	for r := 0; m.more(); r++ {
		in, sum := genSortRound(s.cfg.seed, r, s.n, sortSourceParts)
		var out [][]sortRec
		st, ok := batchRound(m, r, s.n, func() (st jobStats, err error) {
			out, st, err = sutSortJob(clusterConfig(s.cfg.seed, "lz"), in, m.rec)
			return st, err
		}, func() error { return checkSorted(out, s.n, sum) })
		if ok {
			s.last = st
		}
	}
	return nil
}

// sortSplits picks the range boundaries the way SortByKey does: a strided
// sample of each source partition's keys, sorted, cut into equal parts.
func sortSplits(in [][]sortRec) [][]byte {
	var sample [][]byte
	for _, part := range in {
		stride := len(part)/sortSample + 1
		for i := 0; i < len(part); i += stride {
			sample = append(sample, []byte(part[i].Key))
		}
	}
	sort.Slice(sample, func(i, j int) bool { return bytes.Compare(sample[i], sample[j]) < 0 })
	var splits [][]byte
	for i := 1; i < sortParts && len(sample) > 0; i++ {
		s := sample[i*len(sample)/sortParts]
		if len(splits) == 0 || string(splits[len(splits)-1]) != string(s) {
			splits = append(splits, s)
		}
	}
	return splits
}

func (s *sortInst) probes(m *meter, out map[string]float64) error {
	in, _ := genSortRound(s.cfg.seed, 0, s.n, sortSourceParts)
	mapParts := make([][]kvBytes, len(in))
	var flat []kvBytes
	for p, part := range in {
		for _, rec := range part {
			mapParts[p] = append(mapParts[p], kvBytes{[]byte(rec.Key), []byte(rec.Value)})
		}
		flat = append(flat, mapParts[p]...)
	}
	n := float64(s.n)

	sp := m.rec.begin("probe serde")
	sd, err := probeSerde(flat)
	m.rec.end(sp)
	if err != nil {
		return err
	}
	setSerde(out, sd)
	m.share("serde (Writer+Reader, standalone)", (sd.encNs+sd.decNs)*n/1e6)

	sp = m.rec.begin("probe shuffle (sort writer, codec none)")
	sh, err := probeShuffle(mapParts, sortParts, sortSplits(in), nil)
	m.rec.end(sp)
	if err != nil {
		return err
	}
	out["shuffle.sort_write_ns_per_rec"] = sh.writeNs
	out["shuffle.read_merge_ns_per_rec"] = sh.readNs
	setShuffle(out, sh)
	m.share("shuffle sort write (incl. its serde framing)", sh.writeNs*n/1e6)
	m.share("shuffle read + k-way merge (incl. its serde framing)", sh.readNs*n/1e6)

	sp = m.rec.begin("probe compress (lz)")
	cMBs, dMBs, ratio, err := probeLZ(sh.blocks)
	m.rec.end(sp)
	if err != nil {
		return err
	}
	out["compress.lz_compress_mb_s"] = cMBs
	out["compress.lz_decompress_mb_s"] = dMBs
	out["compress.lz_ratio"] = ratio
	rawMB := sh.wirePerRec * n / 1e6
	m.share("compress lz (compress + decompress)", (rawMB/cMBs+rawMB/dMBs)*1e3)

	sp = m.rec.begin("probe dfs")
	var blob []byte
	for _, b := range sh.blocks {
		if len(blob) > 8<<20 {
			break
		}
		blob = append(blob, b...)
	}
	w, r, stored, err := probeDFS(s.cfg.seed, blob)
	m.rec.end(sp)
	if err != nil {
		return err
	}
	out["dfs.write_mb_s"], out["dfs.read_mb_s"], out["dfs.stored_bytes_per_user_byte"] = w, r, stored

	// One more round on an engine with its own tracing on, for the
	// stage spans the engine already records.
	sp = m.rec.begin("probe core stages (EnableTracing round)")
	cfg := clusterConfig(s.cfg.seed, "lz")
	cfg.EnableTracing = true
	_, st, err := sutSortJob(cfg, in, nil)
	m.rec.end(sp)
	if err != nil {
		return err
	}
	return batchProbes(m, out, s.cfg, s.last, st, n)
}

// ---- agg_combine -----------------------------------------------------------

type aggInst struct {
	cfg  runCfg
	n    int // tokens per round
	fp   *fingerprint
	last jobStats
}

func setupAgg(cfg runCfg) (instance, error) {
	per := scaled(2_000_000, cfg.scale, 64*aggSourceParts) / aggSourceParts
	a := &aggInst{cfg: cfg, n: per * aggSourceParts, fp: newFingerprint()}
	in, want := genAggRound(cfg.seed, -1, a.n, aggSourceParts)
	a.fp.u64(uint64(a.n))
	for _, c := range want {
		a.fp.u64(uint64(c))
	}
	got, _, err := sutAggJob(clusterConfig(cfg.seed, "none"), in, nil)
	if err != nil {
		return nil, err
	}
	return a, checkCounts(got, want)
}

func (a *aggInst) fingerprint() uint64 { return a.fp.h }

func (a *aggInst) drive(m *meter) error {
	m.begin()
	for r := 0; m.more(); r++ {
		in, want := genAggRound(a.cfg.seed, r, a.n, aggSourceParts)
		var got []aggPair
		st, ok := batchRound(m, r, a.n, func() (st jobStats, err error) {
			got, st, err = sutAggJob(clusterConfig(a.cfg.seed, "none"), in, m.rec)
			return st, err
		}, func() error { return checkCounts(got, want) })
		if ok {
			a.last = st
		}
	}
	return nil
}

func (a *aggInst) probes(m *meter, out map[string]float64) error {
	in, _ := genAggRound(a.cfg.seed, 0, a.n, aggSourceParts)
	one := encodeInt64(1)
	mapParts := make([][]kvBytes, len(in))
	for p, part := range in {
		mapParts[p] = make([]kvBytes, len(part))
		for i, tok := range part {
			mapParts[p][i] = kvBytes{encodeInt64(tok % aggKeys), one}
		}
	}
	n := float64(a.n)

	// The serde framing only sees what survives the combiner: one map
	// partition's worth of distinct keys.
	sp := m.rec.begin("probe serde")
	sd, err := probeSerde(mapParts[0][:min(len(mapParts[0]), aggKeys)])
	m.rec.end(sp)
	if err != nil {
		return err
	}
	setSerde(out, sd)

	sp = m.rec.begin("probe shuffle (hash writer + combiner, codec none)")
	sh, err := probeShuffle(mapParts, aggParts, nil, int64SumCombiner)
	m.rec.end(sp)
	if err != nil {
		return err
	}
	out["shuffle.hash_write_ns_per_rec"] = sh.writeNs
	out["shuffle.read_unsorted_ns_per_rec"] = sh.readNs
	setShuffle(out, sh)
	m.share("serde (Writer+Reader over combined records, standalone)", (sd.encNs+sd.decNs)*n*sh.combineRatio/1e6)
	m.share("shuffle hash write + combiner", sh.writeNs*n/1e6)
	m.share("shuffle read (unsorted)", sh.readNs*n/1e6)
	m.share("compress", 0)

	sp = m.rec.begin("probe core stages (EnableTracing round)")
	cfg := clusterConfig(a.cfg.seed, "none")
	cfg.EnableTracing = true
	_, st, err := sutAggJob(cfg, in, nil)
	m.rec.end(sp)
	if err != nil {
		return err
	}
	return batchProbes(m, out, a.cfg, a.last, st, n)
}

// ---- shared by the batch workloads -----------------------------------------

func setSerde(out map[string]float64, sd serdeProbe) {
	out["serde.encode_ns_per_rec"] = sd.encNs
	out["serde.decode_ns_per_rec"] = sd.decNs
	out["serde.bytes_per_rec"] = sd.bytesPerRec
	out["serde.encode_allocs_per_rec"] = sd.encAllocs
	out["serde.decode_allocs_per_rec"] = sd.decAllocs
}

func setShuffle(out map[string]float64, sh shuffleProbe) {
	out["shuffle.spills"] = sh.spills
	out["shuffle.combine_ratio"] = sh.combineRatio
	out["shuffle.wire_bytes_per_rec"] = sh.wirePerRec
	out["shuffle.partition_skew"] = sh.skew
}

// batchProbes fills the netsim and core metrics of a workload that runs
// engine jobs: round is the registry of the last timed round, staged that
// of a round run with the engine's own tracing on, items the round size.
func batchProbes(m *meter, out map[string]float64, cfg runCfg, round, staged jobStats, items float64) error {
	sp := m.rec.begin("probe netsim (Fabric.Cost)")
	costNs := probeFabricCost(cfg.seed, scaled(1_000_000, cfg.scale, 1000))
	m.rec.end(sp)
	out["netsim.cost_call_ns"] = costNs
	if round.fetches > 0 {
		out["netsim.sim_fetch_mean_us"] = float64(round.fetchNs) / float64(round.fetches) / 1e3
		out["netsim.fetches_per_round"] = float64(round.fetches)
	}
	if round.fetchBytes > 0 {
		out["netsim.sim_ns_per_kb"] = float64(round.fetchNs) / (float64(round.fetchBytes) / 1024)
	}
	m.share("netsim (Fabric.Cost calls)", float64(round.fetches)*costNs/1e6)

	sp = m.rec.begin("probe core (empty tasks, row boxing)")
	rows, _ := genAggRound(cfg.seed, 0, scaled(400_000, cfg.scale, 64*aggSourceParts), 1)
	emptyUs, boxNs, err := probeCore(cfg.seed, 64, scaled(50, cfg.scale, 2), rows[0])
	m.rec.end(sp)
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	out["core.empty_task_us"] = emptyUs
	out["core.row_box_ns_per_rec"] = boxNs
	out["core.tasks_per_round"] = float64(round.tasks)
	out["core.stages_per_round"] = float64(round.stages)
	out["core.stage_map_ms"] = staged.stageMapMs
	out["core.stage_reduce_ms"] = staged.stageReduceMs
	m.share("core (task launch + row boxing of the source rows)", (float64(round.tasks)*emptyUs*1e3+boxNs*items)/1e6)
	return nil
}
