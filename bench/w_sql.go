package main

import (
	"fmt"
	"time"
)

type sqlInst struct {
	cfg    runCfg
	tables []sqlTable
	sut    *sutSQL
	fp     *fingerprint

	pass0 []uint64 // checksum of each query's rows in the warm-up pass
	rows0 [][][]any
	order []bool

	execs          [][]time.Duration // per query, per timed pass
	planWall       time.Duration
	resultRows     int64
	lastPass       jobStats
	timedScanned   int64 // rows scanned by the timed passes
	decoded, total int64 // encoded bytes decoded / decoded+skipped
}

func setupSQL(cfg runCfg) (instance, error) {
	s := &sqlInst{cfg: cfg, fp: newFingerprint(), execs: make([][]time.Duration, len(sqlQueries))}
	s.tables = genStar(cfg.seed, sqlSizesFor(cfg.scale))
	for _, t := range s.tables {
		s.fp.str(t.name)
		for _, r := range t.rows {
			s.fp.str(formatRow(r))
		}
	}
	for _, q := range sqlQueries {
		s.fp.str(q)
	}
	var err error
	if s.sut, err = newSutSQL(clusterConfig(cfg.seed, "none"), s.tables); err != nil {
		return nil, err
	}
	// Warm-up pass; its rows are kept for the reference comparison.
	for qi, q := range sqlQueries {
		plan, err := s.sut.plan(q)
		if err != nil {
			return nil, fmt.Errorf("q%d: %w", qi+1, err)
		}
		rows, ordered, err := s.sut.execute(plan)
		if err != nil {
			return nil, fmt.Errorf("q%d: %w", qi+1, err)
		}
		s.rows0 = append(s.rows0, rows)
		s.order = append(s.order, ordered)
		s.pass0 = append(s.pass0, rowsChecksum(rows, ordered))
	}
	return s, nil
}

func (s *sqlInst) fingerprint() uint64 { return s.fp.h }

func (s *sqlInst) drive(m *meter) error {
	// Pass 0 against the sequential reference interpreter, outside the
	// timed phase; every timed pass is then compared with pass 0.
	for qi, q := range sqlQueries {
		want, err := s.sut.reference(q)
		if err == nil {
			err = checkRows(qi, s.rows0[qi], want, s.order[qi])
		}
		if err != nil {
			m.fail(1, "pass 0: %v", err)
		} else {
			m.ok(1)
		}
	}
	s.rows0 = nil

	got := make([][][]any, len(sqlQueries))
	prev := s.sut.stats()
	first := prev
	m.begin()
	for pass := 1; m.more(); pass++ {
		counting := m.counting()
		var failed error
		m.start()
		for qi, q := range sqlQueries {
			sp := m.rec.begin("Env.SQL")
			t0 := time.Now()
			plan, err := s.sut.plan(q)
			s.planWall += time.Since(t0)
			m.rec.end(sp)
			if err != nil {
				failed = fmt.Errorf("q%d: %w", qi+1, err)
				break
			}
			sp = m.rec.begin(fmt.Sprintf("Plan.Execute q%d", qi+1))
			t0 = time.Now()
			got[qi], _, err = s.sut.execute(plan)
			s.execs[qi] = append(s.execs[qi], time.Since(t0))
			m.rec.end(sp, "rows", int64(len(got[qi])))
			if err != nil {
				failed = fmt.Errorf("q%d: %w", qi+1, err)
				break
			}
		}
		m.stop(int64(len(sqlQueries)))
		if failed != nil {
			m.fail(int64(len(sqlQueries)), "pass %d: %v", pass, failed)
			continue
		}
		for qi := range sqlQueries {
			s.resultRows += int64(len(got[qi]))
			if rowsChecksum(got[qi], s.order[qi]) != s.pass0[qi] {
				m.fail(1, "pass %d: q%d rows differ from pass 0", pass, qi+1)
			} else {
				m.ok(1)
			}
		}
		now := s.sut.stats()
		s.lastPass, prev = now.since(prev), now
		if counting {
			m.simNs += s.lastPass.simNs
			m.wireBytes += s.lastPass.wireBytes
		}
	}
	timed := prev.since(first)
	s.timedScanned, s.decoded, s.total = timed.scanned, timed.decoded, timed.decoded+timed.skippedByte
	return nil
}

func (s *sqlInst) table(name string) sqlTable {
	for _, t := range s.tables {
		if t.name == name {
			return t
		}
	}
	panic("no table " + name)
}

func (s *sqlInst) probes(m *meter, out map[string]float64) error {
	passes := float64(len(m.walls))
	queries := passes * float64(len(sqlQueries))
	out["query.plan_us_per_query"] = float64(s.planWall) / 1e3 / queries
	m.share("query planning (Env.SQL x 8)", ms(s.planWall)/passes)
	for qi, ds := range s.execs {
		med := ms(quantile(ds, 0.5))
		out[fmt.Sprintf("query.exec_ms.q%d", qi+1)] = med
		m.share(fmt.Sprintf("query execution q%d (Plan.Execute)", qi+1), med)
	}
	if s.resultRows > 0 {
		out["query.rows_scanned_per_result_row"] = float64(s.timedScanned) / float64(s.resultRows)
	}
	if s.total > 0 {
		out["query.bytes_decoded_share"] = float64(s.decoded) / float64(s.total)
	}

	sales, shipments := s.table("sales"), s.table("shipments")
	sp := m.rec.begin("probe table (build, scan, hash join, group agg)")
	tp, err := probeTable(s.cfg.seed, sales, s.table("customer"))
	m.rec.end(sp)
	if err != nil {
		return fmt.Errorf("table probe: %w", err)
	}
	out["table.build_columnar_ns_per_row"] = tp.buildNsPerRow
	out["table.scan_ns_per_row"] = tp.scanNsPerRow
	out["table.hash_join_ns_per_row"] = tp.joinNsPerRow
	out["table.group_agg_ns_per_row"] = tp.aggNsPerRow

	ints := make([]int64, len(sales.rows))
	floats := make([]float64, len(sales.rows))
	for i, r := range sales.rows {
		ints[i], floats[i] = r[3].(int64), r[4].(float64)
	}
	strs := make([]string, len(shipments.rows))
	for i, r := range shipments.rows {
		strs[i] = r[1].(string)
	}
	sp = m.rec.begin("probe serde columnar (encode, decode, filter)")
	cp, err := probeColumns(ints, strs, floats)
	m.rec.end(sp)
	if err != nil {
		return fmt.Errorf("column probe: %w", err)
	}
	out["serde.col_encode_ns_per_val"] = cp.encNs
	out["serde.col_decode_ns_per_val"] = cp.decNs
	out["serde.col_filter_ns_per_val"] = cp.filterNs
	out["serde.col_filter_evals_per_val"] = cp.evalsPerVal

	// One more pass on an engine with its own tracing on, for the stage
	// spans the engine already records.
	sp = m.rec.begin("probe core stages (EnableTracing pass)")
	cfg := clusterConfig(s.cfg.seed, "none")
	cfg.EnableTracing = true
	staged, err := newSutSQL(cfg, s.tables)
	for qi := 0; err == nil && qi < len(sqlQueries); qi++ {
		plan, perr := staged.plan(sqlQueries[qi])
		if err = perr; err == nil {
			_, _, err = staged.execute(plan)
		}
	}
	m.rec.end(sp)
	if err != nil {
		return fmt.Errorf("stage probe: %w", err)
	}
	return batchProbes(m, out, s.cfg, s.lastPass, staged.stats(), 0)
}
