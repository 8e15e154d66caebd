package main

// sut.go is the only file that imports the program. Every function of
// `repro` and `repro/internal/...` the benchmark calls is called here, so
// this file is the API surface a later change to the program has to keep
// (bench/README.md lists it). The rest of bench/ is generators, the
// meter, the checkers and the comparison tool.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	hpbdc "repro"
	"repro/internal/check"
	"repro/internal/compress"
	"repro/internal/consensus"
	"repro/internal/ha"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/query"
	"repro/internal/serde"
	"repro/internal/shuffle"
	"repro/internal/stream"
	"repro/internal/table"
	"repro/internal/topology"
)

// Program types the generators and checkers name.
type (
	sortRec      = hpbdc.Pair[string, string]
	aggPair      = hpbdc.Pair[int64, int64]
	streamEvent  = stream.Event
	streamResult = stream.Result
)

// clusterNodes is the simulated cluster every workload but kv_txn runs on:
// 2 racks x 4 nodes, 2 slots each, RDMA cost model.
const clusterNodes = 8

func clusterConfig(seed uint64, codec string) hpbdc.Config {
	return hpbdc.Config{
		Racks: 2, NodesPerRack: 4, SlotsPerNode: 2,
		Transport: "rdma", ShuffleCodec: codec, Seed: seed,
	}
}

// jobStats is what one batch context's registry says after its jobs ran.
type jobStats struct {
	simNs, wireBytes              int64 // net_time_ns, shuffle_wire_bytes
	fetches, fetchNs, fetchBytes  int64 // fabric cost queries
	tasks, stages                 int64
	stageMapMs, stageReduceMs     float64 // only with EnableTracing
	scanned, decoded, skippedByte int64   // columnar scan counters (sql)
}

// since is what the registry counted after b was read.
func (a jobStats) since(b jobStats) jobStats {
	return jobStats{
		simNs: a.simNs - b.simNs, wireBytes: a.wireBytes - b.wireBytes,
		fetches: a.fetches - b.fetches, fetchNs: a.fetchNs - b.fetchNs, fetchBytes: a.fetchBytes - b.fetchBytes,
		tasks: a.tasks - b.tasks, stages: a.stages - b.stages,
		scanned: a.scanned - b.scanned, decoded: a.decoded - b.decoded, skippedByte: a.skippedByte - b.skippedByte,
	}
}

func readJobStats(ctx *hpbdc.Context) jobStats {
	reg := ctx.Metrics()
	st := jobStats{
		simNs:       reg.Counter("net_time_ns").Value(),
		wireBytes:   reg.Counter("shuffle_wire_bytes").Value(),
		fetches:     reg.Counter("net_cost_queries").Value(),
		fetchNs:     reg.Counter("net_cost_time_ns").Value(),
		fetchBytes:  reg.Counter("net_cost_payload_bytes").Value(),
		tasks:       reg.Counter("tasks_launched").Value(),
		stages:      reg.Counter("stages_run").Value(),
		scanned:     reg.Counter(table.CtrRowsScanned).Value(),
		decoded:     reg.Counter(table.CtrBytesDecoded).Value(),
		skippedByte: reg.Counter(table.CtrBytesSkipped).Value(),
	}
	// The engine's existing stage spans, folded by stage kind.
	for _, s := range ctx.Tracer().Spans() {
		if s.Category != "stage" {
			continue
		}
		if strings.HasPrefix(s.Name, "map") {
			st.stageMapMs += ms(s.Duration)
		} else {
			st.stageReduceMs += ms(s.Duration)
		}
	}
	return st
}

// ---- sort_wide -------------------------------------------------------------

const (
	sortSourceParts = 8
	sortParts       = 8
	sortSample      = 128
)

// sutSortJob runs one sort_wide round on a fresh context: SourceFunc ->
// SortByKey (which runs its sampling job) -> CollectPartitions.
func sutSortJob(cfg hpbdc.Config, in [][]sortRec, rec *spanRecorder) ([][]sortRec, jobStats, error) {
	ctx := hpbdc.New(cfg)
	src := hpbdc.SourceFunc(ctx, len(in), func(part int) []sortRec { return in[part] })
	s := rec.begin("SortByKey (sampling job)")
	sorted, err := hpbdc.SortByKey(src, hpbdc.StringCodec, hpbdc.StringCodec, sortParts, sortSample)
	rec.end(s)
	if err != nil {
		return nil, jobStats{}, err
	}
	s = rec.begin("CollectPartitions")
	out, err := sorted.CollectPartitions()
	rec.end(s)
	return out, readJobStats(ctx), err
}

// ---- agg_combine -----------------------------------------------------------

const (
	aggSourceParts = 8
	aggParts       = 4
)

// sutAggJob runs one agg_combine round on a fresh context: SourceFunc ->
// Map -> ReduceByKey -> Collect.
func sutAggJob(cfg hpbdc.Config, in [][]int64, rec *spanRecorder) ([]aggPair, jobStats, error) {
	ctx := hpbdc.New(cfg)
	src := hpbdc.SourceFunc(ctx, len(in), func(part int) []int64 { return in[part] })
	pairs := hpbdc.Map(src, func(tok int64) aggPair { return aggPair{Key: tok % aggKeys, Value: 1} })
	counts := hpbdc.ReduceByKey(pairs, hpbdc.Int64Codec, hpbdc.Int64Codec, aggParts,
		func(a, b int64) int64 { return a + b })
	s := rec.begin("Collect")
	out, err := counts.Collect()
	rec.end(s)
	return out, readJobStats(ctx), err
}

// ---- sql_star --------------------------------------------------------------

const sqlParts = 4

// sutSQL is a query environment with the star schema registered.
type sutSQL struct {
	ctx  *hpbdc.Context
	env  *query.Env
	opts query.Options
}

func sqlSchema(t sqlTable) table.Schema {
	var s table.Schema
	for c, name := range t.cols {
		typ := table.String
		switch t.rows[0][c].(type) {
		case int64:
			typ = table.Int64
		case float64:
			typ = table.Float64
		}
		s.Cols = append(s.Cols, table.Col{Name: name, Type: typ})
	}
	return s
}

func sqlRows(t sqlTable) []table.Row {
	rows := make([]table.Row, len(t.rows))
	for i, r := range t.rows {
		rows[i] = r
	}
	return rows
}

func newSutSQL(cfg hpbdc.Config, tables []sqlTable) (*sutSQL, error) {
	ctx := hpbdc.New(cfg)
	s := &sutSQL{ctx: ctx, env: query.NewEnv(ctx.Engine(), nil)}
	for _, t := range tables {
		if err := s.env.Register(t.name, sqlSchema(t), sqlRows(t), sqlParts); err != nil {
			return nil, err
		}
		if t.name == "sales" {
			s.opts = query.Options{Optimize: true, Parts: sqlParts, BroadcastRows: int64(len(t.rows) / 4)}
		}
	}
	return s, nil
}

func (s *sutSQL) plan(sql string) (*query.Plan, error) { return s.env.SQL(sql, s.opts) }

// execute runs a plan; ordered says whether the row order is part of the
// answer.
func (s *sutSQL) execute(p *query.Plan) (rows [][]any, ordered bool, err error) {
	got, err := p.Execute()
	if err != nil {
		return nil, false, err
	}
	rows = make([][]any, len(got))
	for i, r := range got {
		rows[i] = r
	}
	return rows, p.Ordered(), nil
}

// reference evaluates sql with the program's sequential reference
// interpreter over the registered rows.
func (s *sutSQL) reference(sql string) ([][]any, error) {
	lp, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	tables := map[string]check.QueryInput{}
	for _, name := range s.env.Tables() {
		schema, err := s.env.Schema(name)
		if err != nil {
			return nil, err
		}
		rows, err := s.env.Rows(name)
		if err != nil {
			return nil, err
		}
		tables[name] = check.QueryInput{Schema: schema, Rows: rows}
	}
	_, want, err := check.ReferenceQuery(lp, tables)
	if err != nil {
		return nil, err
	}
	rows := make([][]any, len(want))
	for i, r := range want {
		rows[i] = r
	}
	return rows, nil
}

func (s *sutSQL) stats() jobStats { return readJobStats(s.ctx) }

// ---- stream_window ---------------------------------------------------------

const (
	streamWorkers         = 4
	streamBuffer          = 256
	streamWatermarkEvery  = 256
	streamWatermarkLag    = 5 * time.Millisecond
	streamCheckpointEvery = 20_000
)

func streamPipelineConfig() stream.Config {
	return stream.Config{Workers: streamWorkers, Buffer: streamBuffer, Window: time.Duration(streamWindowNs)}
}

// streamStats is what the pipeline's registry says after a run.
type streamStats struct {
	lateDropped, checkpoints, checkpointBytes int64
	sojournP50Ns                              int64
}

// sutStreamRun drives src to exhaustion through a checkpointing Runner;
// tick is called every tickEvery records (the round boundary).
func sutStreamRun(src stream.Source, checkpointEvery, tickEvery int, tick func()) ([]streamResult, streamStats, error) {
	r := stream.NewRunner(stream.RunConfig{
		Pipeline:        streamPipelineConfig(),
		CheckpointEvery: checkpointEvery,
		WatermarkEvery:  streamWatermarkEvery,
		WatermarkLag:    streamWatermarkLag,
		TickEvery:       tickEvery,
		Tick:            tick,
	}, src)
	res, err := r.Run()
	reg := r.Metrics()
	return res, streamStats{
		lateDropped:     reg.Counter("late_dropped").Value(),
		checkpoints:     reg.Counter("checkpoints_committed").Value(),
		checkpointBytes: reg.Counter("checkpoint_bytes").Value(),
		sojournP50Ns:    reg.Histogram("sojourn_ns").Quantile(0.5),
	}, err
}

// probeStreamSend pushes events through a bare pipeline from the harness:
// Send per event, Advance on the Runner's cadence. With checkpointEvery >
// 0 it also calls TriggerCheckpoint, timing those calls from outside, one
// span each.
func probeStreamSend(events []streamEvent, checkpointEvery int, rec *spanRecorder) (sendNsPerEvent, ckptMsMean, ckptBytesMean float64, err error) {
	p := stream.New(streamPipelineConfig())
	var high, ckptWall time.Duration
	var ckpts, ckptBytes int64
	t0 := time.Now()
	for i, ev := range events {
		if ev.EventTime > high {
			high = ev.EventTime
		}
		if err = p.Send(ev); err != nil {
			break
		}
		off := i + 1
		if off%streamWatermarkEvery == 0 && high > streamWatermarkLag {
			if err = p.Advance(high - streamWatermarkLag); err != nil {
				break
			}
		}
		if checkpointEvery > 0 && off%checkpointEvery == 0 {
			s := rec.begin("TriggerCheckpoint")
			c0 := time.Now()
			ck, cerr := p.TriggerCheckpoint(int64(off), high)
			ckptWall += time.Since(c0)
			if cerr != nil {
				rec.end(s)
				err = cerr
				break
			}
			rec.end(s, "bytes", ck.Bytes)
			ckpts++
			ckptBytes += ck.Bytes
		}
	}
	wall := time.Since(t0) - ckptWall
	p.Close()
	if err != nil {
		return 0, 0, 0, err
	}
	sendNsPerEvent = float64(wall) / float64(len(events))
	if ckpts > 0 {
		ckptMsMean = ms(ckptWall) / float64(ckpts)
		ckptBytesMean = float64(ckptBytes) / float64(ckpts)
	}
	return sendNsPerEvent, ckptMsMean, ckptBytesMean, nil
}

// ---- kv_mix ----------------------------------------------------------------

// sutRing is the quorum store (N=3, R=2, W=2) on the simulated cluster.
type sutRing struct {
	store  *kvstore.Store
	fabric *netsim.Fabric
}

func newSutRing(seed uint64) (*sutRing, error) {
	ctx := hpbdc.New(clusterConfig(seed, "none"))
	store, err := ctx.NewKVStore(3, 2, 2)
	if err != nil {
		return nil, err
	}
	return &sutRing{store: store, fabric: ctx.Fabric()}, nil
}

// get returns the value (nil when absent) and the simulated client latency.
func (r *sutRing) get(coord int, key string) ([]byte, time.Duration, error) {
	v, lat, err := r.store.Get(topology.NodeID(coord), key)
	if errors.Is(err, kvstore.ErrNotFound) {
		return nil, lat, nil
	}
	return v, lat, err
}

func (r *sutRing) put(coord int, key string, value []byte) (time.Duration, error) {
	return r.store.Put(topology.NodeID(coord), key, value)
}

func (r *sutRing) readRepairs() int64 { return r.store.Reg.Counter("read_repairs").Value() }

// probeFabricCost is the wall time of one Fabric.Cost call on the
// instrumented fabric the workloads use.
func probeFabricCost(seed uint64, calls int) float64 {
	f := hpbdc.New(clusterConfig(seed, "none")).Fabric()
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		sink += f.Cost(topology.NodeID(i%clusterNodes), topology.NodeID((i/clusterNodes)%clusterNodes), int64(64+i%4096))
	}
	wall := time.Since(t0)
	if sink < 0 {
		panic("unreachable")
	}
	return float64(wall) / float64(calls)
}

// ---- kv_txn ----------------------------------------------------------------

// sutSharded is the range-sharded transactional store: 2 Raft groups, the
// key space pre-split into len(splits)+1 ranges.
type sutSharded struct{ s *kvstore.Sharded }

func newSutSharded(seed uint64, splits []string) *sutSharded {
	return &sutSharded{s: kvstore.NewSharded(kvstore.ShardedConfig{
		Seed: seed, Groups: 2, InitialSplits: append([]string(nil), splits...),
	})}
}

func (s *sutSharded) get(key string) ([]byte, bool, error) {
	return s.s.Get(context.Background(), key)
}

func (s *sutSharded) put(key string, value []byte) error {
	return s.s.Put(context.Background(), key, value)
}

func (s *sutSharded) txn(reads []string, writes map[string][]byte) (map[string][]byte, error) {
	return s.s.Txn(context.Background(), reads, writes)
}

// virtualCost is the simulated latency of everything issued so far; the
// delta across one op is that op's simulated latency.
func (s *sutSharded) virtualCost() time.Duration { return s.s.VirtualCost() }

func (s *sutSharded) txnRetries() int64 { return s.s.Reg.Counter("txn_retries").Value() }
func (s *sutSharded) proposals() int64  { return s.s.Reg.Counter("ha_proposals").Value() }

// ---- layer probes ----------------------------------------------------------

// allocsDuring runs f and returns its wall time and what it allocated.
func allocsDuring(f func()) (wall time.Duration, mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	f()
	wall = time.Since(t0)
	runtime.ReadMemStats(&b)
	return wall, b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// kvBytes is one shuffle record as the shuffle layer sees it.
type kvBytes struct{ k, v []byte }

type serdeProbe struct {
	encNs, decNs, bytesPerRec, encAllocs, decAllocs float64
}

// probeSerde streams recs through serde.Writer and back through
// serde.Reader.
func probeSerde(recs []kvBytes) (serdeProbe, error) {
	var buf bytes.Buffer
	var p serdeProbe
	var err error
	n := float64(len(recs))
	size := 0
	for _, r := range recs {
		size += len(r.k) + len(r.v) + 4
	}
	buf.Grow(size) // time the framing, not the buffer's growth
	wall, mallocs, _ := allocsDuring(func() {
		w := serde.NewWriter(&buf)
		for _, r := range recs {
			if err = w.Write(r.k, r.v); err != nil {
				return
			}
		}
	})
	if err != nil {
		return p, err
	}
	p.encNs, p.encAllocs, p.bytesPerRec = float64(wall)/n, float64(mallocs)/n, float64(buf.Len())/n
	read := 0
	wall, mallocs, _ = allocsDuring(func() {
		r := serde.NewReader(bytes.NewReader(buf.Bytes()))
		for {
			if _, err = r.Read(); err != nil {
				break
			}
			read++
		}
	})
	if err != io.EOF {
		return p, err
	}
	if read != len(recs) {
		return p, fmt.Errorf("serde probe: wrote %d records, read %d", len(recs), read)
	}
	p.decNs, p.decAllocs = float64(wall)/n, float64(mallocs)/n
	return p, nil
}

type shuffleProbe struct {
	writeNs, readNs          float64 // per record in
	spills                   float64
	combineRatio, wirePerRec float64
	skew                     float64
	blocks                   [][]byte // serialized blocks (codec none)
	recordsIn, recordsOut    int
}

// probeShuffle writes each map partition through a shuffle writer (sort
// writer + range partitioner when splits != nil, hash writer otherwise)
// with codec none, then reads every reduce partition back with
// ReadBlocks.
func probeShuffle(mapParts [][]kvBytes, parts int, splits [][]byte, combiner func(a, b []byte) []byte) (shuffleProbe, error) {
	var p shuffleProbe
	cfg := shuffle.Config{Partitions: parts, Combiner: combiner}
	if splits != nil {
		rp := shuffle.NewRangePartitioner(splits)
		cfg.Partitions, cfg.Partitioner = rp.Partitions(), rp.Partition
	}
	byReduce := make([][]shuffle.Block, cfg.Partitions)
	perPart := make([]int, cfg.Partitions)
	var wire int64
	var writeWall time.Duration
	for _, recs := range mapParts {
		t0 := time.Now()
		var w shuffle.Writer
		var err error
		if splits != nil {
			w, err = shuffle.NewSortWriter(cfg)
		} else {
			w, err = shuffle.NewHashWriter(cfg)
		}
		if err != nil {
			return p, err
		}
		for _, r := range recs {
			if err := w.Write(r.k, r.v); err != nil {
				return p, err
			}
		}
		blocks, st, err := w.Close()
		if err != nil {
			return p, err
		}
		writeWall += time.Since(t0)
		p.recordsIn += st.RecordsIn
		p.recordsOut += st.RecordsOut
		p.spills += float64(st.Spills)
		wire += st.WireBytes
		for i, n := range st.PartitionRecords {
			perPart[i] += n
		}
		for _, b := range blocks {
			byReduce[b.Partition] = append(byReduce[b.Partition], b)
			p.blocks = append(p.blocks, b.Data)
		}
	}
	read := 0
	t0 := time.Now()
	for _, blocks := range byReduce {
		recs, err := shuffle.ReadBlocks(compress.None{}, blocks)
		if err != nil {
			return p, err
		}
		read += len(recs)
	}
	readWall := time.Since(t0)
	if read != p.recordsOut {
		return p, fmt.Errorf("shuffle probe: wrote %d records, read %d", p.recordsOut, read)
	}
	n := float64(p.recordsIn)
	p.writeNs, p.readNs = float64(writeWall)/n, float64(readWall)/n
	p.combineRatio = float64(p.recordsOut) / n
	p.wirePerRec = float64(wire) / n
	max := 0
	for _, c := range perPart {
		if c > max {
			max = c
		}
	}
	p.skew = float64(max) / (float64(p.recordsOut) / float64(len(perPart)))
	return p, nil
}

// int64SumCombiner is the combiner ReduceByKey builds for Int64Codec
// values and an adding merge.
func int64SumCombiner(a, b []byte) []byte {
	return hpbdc.Int64Codec.Encode(hpbdc.Int64Codec.Decode(a) + hpbdc.Int64Codec.Decode(b))
}

func encodeInt64(v int64) []byte { return hpbdc.Int64Codec.Encode(v) }

// probeLZ compresses and decompresses blocks with the lz codec.
func probeLZ(blocks [][]byte) (compressMBs, decompressMBs, ratio float64, err error) {
	codec, err := compress.ByName("lz")
	if err != nil {
		return 0, 0, 0, err
	}
	var raw, packed int
	out := make([][]byte, len(blocks))
	t0 := time.Now()
	for i, b := range blocks {
		out[i] = codec.Compress(b)
	}
	cWall := time.Since(t0)
	t0 = time.Now()
	for i, b := range out {
		back, err := codec.Decompress(b)
		if err != nil {
			return 0, 0, 0, err
		}
		if len(back) != len(blocks[i]) {
			return 0, 0, 0, errors.New("lz probe: round trip changed the block length")
		}
		raw += len(back)
		packed += len(b)
	}
	dWall := time.Since(t0)
	mb := float64(raw) / 1e6
	return mb / cWall.Seconds(), mb / dWall.Seconds(), float64(packed) / float64(raw), nil
}

// probeCore measures the engine's own overhead: a job of no-op tasks, and
// an identity Map over boxed rows.
func probeCore(seed uint64, tasks, jobs int, rows []int64) (emptyTaskUs, rowBoxNs float64, err error) {
	ctx := hpbdc.New(clusterConfig(seed, "none"))
	t0 := time.Now()
	for j := 0; j < jobs; j++ {
		if _, err = hpbdc.SourceFunc(ctx, tasks, func(int) []int64 { return nil }).Count(); err != nil {
			return 0, 0, err
		}
	}
	emptyTaskUs = float64(time.Since(t0)) / 1e3 / float64(tasks*jobs)

	per := len(rows) / aggSourceParts
	src := hpbdc.SourceFunc(ctx, aggSourceParts, func(part int) []int64 { return rows[part*per : (part+1)*per] })
	t0 = time.Now()
	n, err := hpbdc.Map(src, func(v int64) int64 { return v }).Count()
	if err != nil {
		return 0, 0, err
	}
	return emptyTaskUs, float64(time.Since(t0)) / float64(n), nil
}

// probeDFS writes data to the context's DFS and reads it back. No
// end-to-end workload runs the DFS; this probe is all the benchmark says
// about it.
func probeDFS(seed uint64, data []byte) (writeMBs, readMBs, storedPerUserByte float64, err error) {
	fs := hpbdc.New(clusterConfig(seed, "none")).DFS()
	t0 := time.Now()
	w, err := fs.Create("/bench/blob")
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err = w.Write(data); err != nil {
		return 0, 0, 0, err
	}
	if err = w.Close(); err != nil {
		return 0, 0, 0, err
	}
	wWall := time.Since(t0)
	t0 = time.Now()
	r, err := fs.Open("/bench/blob", 0)
	if err != nil {
		return 0, 0, 0, err
	}
	n, err := io.Copy(io.Discard, r)
	if err != nil {
		return 0, 0, 0, err
	}
	if n != int64(len(data)) {
		return 0, 0, 0, fmt.Errorf("dfs probe: wrote %d bytes, read %d", len(data), n)
	}
	mb := float64(len(data)) / 1e6
	return mb / wWall.Seconds(), mb / time.Since(t0).Seconds(), float64(fs.TotalStoredBytes()) / float64(len(data)), nil
}

type tableProbe struct {
	buildNsPerRow, scanNsPerRow, joinNsPerRow, aggNsPerRow float64
}

// probeTable times the table layer's operators directly over the
// generated sales and customer tables.
func probeTable(seed uint64, sales, customer sqlTable) (tableProbe, error) {
	var p tableProbe
	eng := hpbdc.New(clusterConfig(seed, "none")).Engine()
	schema, rows := sqlSchema(sales), sqlRows(sales)
	n := float64(len(rows))

	t0 := time.Now()
	ct, err := table.BuildColumnar(schema, rows, sqlParts)
	if err != nil {
		return p, err
	}
	p.buildNsPerRow = float64(time.Since(t0)) / n

	t0 = time.Now()
	scan, err := ct.Scan(eng, nil, nil, nil)
	if err != nil {
		return p, err
	}
	if _, err := scan.Count(); err != nil {
		return p, err
	}
	p.scanNsPerRow = float64(time.Since(t0)) / n

	left, err := table.FromSlice(eng, schema, rows, sqlParts)
	if err != nil {
		return p, err
	}
	right, err := table.FromSlice(eng, sqlSchema(customer), sqlRows(customer), sqlParts)
	if err != nil {
		return p, err
	}
	t0 = time.Now()
	joined, err := left.HashJoin(right, "cust_id", "cust_id", sqlParts)
	if err != nil {
		return p, err
	}
	if _, err := joined.Count(); err != nil {
		return p, err
	}
	p.joinNsPerRow = float64(time.Since(t0)) / (n + float64(len(customer.rows)))

	t0 = time.Now()
	agg, err := left.GroupBy("cust_id").Agg(sqlParts, table.Agg{Op: table.Sum, Col: "amount"})
	if err != nil {
		return p, err
	}
	if _, err := agg.Collect(); err != nil {
		return p, err
	}
	p.aggNsPerRow = float64(time.Since(t0)) / n
	return p, nil
}

type colProbe struct {
	encNs, decNs, filterNs, evalsPerVal float64
}

// probeColumns times the columnar codecs and the encoded-column filters
// over one int, one string and one float column.
func probeColumns(ints []int64, strs []string, floats []float64) (colProbe, error) {
	var p colProbe
	vals := float64(len(ints) + len(strs) + len(floats))

	t0 := time.Now()
	ib := serde.IntColumn(ints).Encode()
	sb := serde.StringColumn(strs).Encode()
	fb := serde.FloatColumn(floats).Encode()
	p.encNs = float64(time.Since(t0)) / vals

	t0 = time.Now()
	if _, err := serde.DecodeIntColumn(ib); err != nil {
		return p, err
	}
	if _, err := serde.DecodeStringColumn(sb); err != nil {
		return p, err
	}
	if _, err := serde.DecodeFloatColumn(fb); err != nil {
		return p, err
	}
	p.decNs = float64(time.Since(t0)) / vals

	t0 = time.Now()
	_, is, err := serde.FilterIntColumn(ib, func(v int64) bool { return v >= 8 })
	if err != nil {
		return p, err
	}
	_, ss, err := serde.FilterStringColumn(sb, func(s string) bool { return s != "air" })
	if err != nil {
		return p, err
	}
	_, fs, err := serde.FilterFloatColumn(fb, func(f float64) bool { return f < 100 })
	if err != nil {
		return p, err
	}
	p.filterNs = float64(time.Since(t0)) / vals
	p.evalsPerVal = float64(is.PredEvals+ss.PredEvals+fs.PredEvals) / vals
	return p, nil
}

type ringProbe struct{ getNs, putNs, simGetUs, simPutUs float64 }

// probeRing times Store.Get and Store.Put on a fresh, preloaded store.
func probeRing(seed uint64, keys []string, pool [][]byte, ops int) (ringProbe, error) {
	var p ringProbe
	ring, err := newSutRing(seed)
	if err != nil {
		return p, err
	}
	for i, k := range keys {
		if _, err := ring.put(i%clusterNodes, k, pool[i%len(pool)]); err != nil {
			return p, err
		}
	}
	r := prng{s: roundSeed(seed, "ring_probe", 0)}
	var sim time.Duration
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		_, lat, err := ring.get(i%clusterNodes, keys[r.intn(len(keys))])
		if err != nil {
			return p, err
		}
		sim += lat
	}
	p.getNs, p.simGetUs = float64(time.Since(t0))/float64(ops), float64(sim)/1e3/float64(ops)
	sim = 0
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		lat, err := ring.put(i%clusterNodes, keys[r.intn(len(keys))], pool[i%len(pool)])
		if err != nil {
			return p, err
		}
		sim += lat
	}
	p.putNs, p.simPutUs = float64(time.Since(t0))/float64(ops), float64(sim)/1e3/float64(ops)
	return p, nil
}

type shardedProbe struct{ getUs, putUs, txnUs float64 }

// probeSharded times Get, Put and a 2-key Txn on a fresh, preloaded
// sharded store.
func probeSharded(seed uint64, keys, splits []string, pool [][]byte, ops int) (shardedProbe, error) {
	var p shardedProbe
	s := newSutSharded(seed, splits)
	for i, k := range keys {
		if err := s.put(k, pool[i%len(pool)]); err != nil {
			return p, err
		}
	}
	r := prng{s: roundSeed(seed, "sharded_probe", 0)}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if _, _, err := s.get(keys[r.intn(len(keys))]); err != nil {
			return p, err
		}
	}
	p.getUs = float64(time.Since(t0)) / 1e3 / float64(ops)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if err := s.put(keys[r.intn(len(keys))], pool[i%len(pool)]); err != nil {
			return p, err
		}
	}
	p.putUs = float64(time.Since(t0)) / 1e3 / float64(ops)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		a := r.intn(len(keys))
		b := (a + 1 + r.intn(len(keys)-1)) % len(keys)
		v := pool[i%len(pool)]
		if _, err := s.txn([]string{keys[a], keys[b]}, map[string][]byte{keys[a]: v, keys[b]: v}); err != nil {
			return p, err
		}
	}
	p.txnUs = float64(time.Since(t0)) / 1e3 / float64(ops)
	return p, nil
}

// counterMachine is the trivial state machine the ha probe replicates.
type counterMachine struct{ n uint64 }

func (c *counterMachine) Apply(cmd []byte) []byte { c.n++; return cmd[:1] }
func (c *counterMachine) Snapshot() []byte        { return binary.LittleEndian.AppendUint64(nil, c.n) }
func (c *counterMachine) Restore(snap []byte)     { c.n = binary.LittleEndian.Uint64(snap) }

// probeHA times ha.Group.Propose on a trivial machine.
func probeHA(seed uint64, ops int) (proposeUs, allocBytes, ticksPerPropose float64, err error) {
	g := ha.NewGroup(ha.Config{Seed: seed, Machines: map[string]func() ha.StateMachine{
		"counter": func() ha.StateMachine { return &counterMachine{} },
	}})
	cmd := []byte("increment")
	ticks := g.Ticks()
	wall, _, bytes := allocsDuring(func() {
		for i := 0; i < ops; i++ {
			if _, err = g.Propose("counter", cmd); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	n := float64(ops)
	return float64(wall) / 1e3 / n, float64(bytes) / n, float64(g.Ticks()-ticks) / n, nil
}

// probeConsensus drives a bare 3-node Raft cluster: log entries applied
// per proposal, and how many log compactions the ha layer's policy
// (compact past 128 live entries) performs over the run.
func probeConsensus(seed uint64, ops int) (entriesPerPropose, compactions float64, err error) {
	const members, compactEvery = 3, 128
	c := consensus.NewHardenedCluster(members, seed)
	leader := c.RunUntilLeader(500)
	if leader < 0 {
		return 0, 0, errors.New("consensus probe: no leader elected")
	}
	before := len(c.Applied(leader))
	cmd := []byte("increment")
	for i := 0; i < ops; i++ {
		if !c.Propose(cmd) {
			return 0, 0, errors.New("consensus probe: proposal refused")
		}
		for id := 0; id < members; id++ {
			if applied := c.Applied(id); c.Node(id).LogLen() > compactEvery && len(applied) > 0 {
				if err := c.Node(id).Compact(applied[len(applied)-1].Index, nil); err != nil {
					return 0, 0, err
				}
				compactions++
			}
		}
	}
	return float64(len(c.Applied(leader))-before) / float64(ops), compactions, nil
}
