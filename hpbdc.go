// Package hpbdc is a high-performance big data and cloud computing
// framework: a typed, Spark-style dataset API over a lineage-based DAG
// engine, backed by a simulated datacenter (topology, RDMA/TCP transport
// cost models, an HDFS-like DFS, slot-based executors) plus the companion
// systems the domain leans on — a quorum-replicated KV store, Raft
// metadata consensus, SWIM membership, an event-time streaming engine, a
// Pregel-style graph engine, a parameter server and a cloud autoscaler.
//
// Quick start:
//
//	ctx := hpbdc.New(hpbdc.Config{Racks: 2, NodesPerRack: 4})
//	lines := hpbdc.Parallelize(ctx, []string{"a b", "b c"}, 2)
//	words := hpbdc.FlatMap(lines, func(l string) []string { return strings.Fields(l) })
//	pairs := hpbdc.KeyBy(words, func(w string) string { return w })
//	ones := hpbdc.MapValues(pairs, func(string) int64 { return 1 })
//	counts := hpbdc.ReduceByKey(ones, hpbdc.StringCodec, hpbdc.Int64Codec, 4,
//		func(a, b int64) int64 { return a + b })
//	result, err := counts.Collect()
//
// Everything runs in-process: tasks are real goroutines over real bytes;
// the network, failures and placement are simulated deterministically.
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduced evaluation suite.
package hpbdc

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/ha"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Config describes the simulated datacenter and engine settings.
type Config struct {
	// Racks and NodesPerRack define the cluster shape. Defaults: 2 x 4.
	Racks, NodesPerRack int
	// Oversub is the core oversubscription factor (>= 1). Default 2.
	Oversub float64
	// Transport selects the network cost model: "rdma" (default), "tcp"
	// or "ipoib".
	Transport string
	// SlotsPerNode is per-node task concurrency. Default 2.
	SlotsPerNode int
	// BlockSize is the DFS split size. Default 4 MiB.
	BlockSize int64
	// Replication is the DFS replica count. Default 3.
	Replication int
	// ShuffleCodec names the shuffle compression codec: "none" (default),
	// "rle", "lz", "flate".
	ShuffleCodec string
	// ForceSortShuffle routes all shuffles through the sort-based writer.
	ForceSortShuffle bool
	// TaskFailProb injects transient task failures (fault experiments).
	TaskFailProb float64
	// Seed drives all randomness (placement, failures, chaos wildcards,
	// retry jitter). Default 1.
	Seed uint64
	// Speculation enables backup launches for straggler tasks; the first
	// copy to finish wins. See core.Config.Speculation.
	Speculation bool
	// Chaos, when non-nil, replays the fault schedule against the whole
	// context (executors, DFS, network fabric, per-node task faults) as
	// the engine advances virtual time. Runs are reproducible from
	// (Chaos, Seed). Build schedules with chaos.Parse, chaos.Preset or
	// chaos.Load.
	Chaos chaos.Schedule
	// EnableTracing attaches a span recorder to the engine so every task
	// and stage is recorded. Required for Context.Report and Chrome-trace
	// export; off by default because span recording allocates per task.
	EnableTracing bool
	// HA replicates the control plane: the DFS namenode runs as a Raft
	// state machine on a 3-member group (metadata survives a leader
	// crash), and the job coordinator journals stage completions into the
	// same group so a coordinator crash resumes from the last completed
	// stage. Chaos schedules gain nn-crash/nn-revive/coord-crash targets;
	// the datanode/block layer is unchanged.
	HA bool
}

// Context owns one simulated cluster and its engine. Create with New.
type Context struct {
	top     *topology.Topology
	fabric  *netsim.Fabric
	cluster *cluster.Cluster
	fs      *dfs.DFS
	engine  *core.Engine
	tracer  *trace.Recorder
	chaos   *chaos.Controller
	group   *ha.Group
	seed    uint64
}

// jobMachine names the coordinator-journal state machine inside the
// replicated control-plane group ("nn" hosts the namenode).
const jobMachine = "job"

// TransportModel resolves a transport name to its cost model.
func TransportModel(name string) (netsim.Model, error) {
	switch name {
	case "rdma", "":
		return netsim.RDMA40G, nil
	case "tcp":
		return netsim.TCP40G, nil
	case "ipoib":
		return netsim.IPoIB40G, nil
	default:
		return netsim.Model{}, fmt.Errorf("hpbdc: unknown transport %q", name)
	}
}

// New builds a context. Invalid configuration panics: a bad cluster shape
// is a programming error, not a runtime condition.
func New(cfg Config) *Context {
	if cfg.Racks <= 0 {
		cfg.Racks = 2
	}
	if cfg.NodesPerRack <= 0 {
		cfg.NodesPerRack = 4
	}
	if cfg.Oversub < 1 {
		cfg.Oversub = 2
	}
	if cfg.SlotsPerNode <= 0 {
		cfg.SlotsPerNode = 2
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 4 << 20
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	model, err := TransportModel(cfg.Transport)
	if err != nil {
		panic(err)
	}
	codec, err := compress.ByName(cfg.ShuffleCodec)
	if err != nil {
		panic(err)
	}
	top := topology.TwoTier(cfg.Racks, cfg.NodesPerRack, cfg.Oversub)
	fabric := netsim.NewFabric(top, model)
	cl := cluster.New(cluster.Config{Fabric: fabric, SlotsPerNode: cfg.SlotsPerNode})
	dfsCfg := dfs.Config{
		BlockSize:   cfg.BlockSize,
		Replication: cfg.Replication,
		Topology:    top,
		Seed:        cfg.Seed,
	}
	eng := core.NewEngine(core.Config{
		Cluster:          cl,
		Codec:            codec,
		ForceSortShuffle: cfg.ForceSortShuffle,
		TaskFailProb:     cfg.TaskFailProb,
		Seed:             cfg.Seed,
		Speculation:      cfg.Speculation,
	})
	// With HA the namenode state machine and the coordinator journal share
	// one replicated group; without it the namenode is embedded and the
	// coordinator keeps no journal. Either way the engine sees the same
	// DFS API — placement is seed-identical across the two modes.
	var group *ha.Group
	var fs *dfs.DFS
	if cfg.HA {
		group = ha.NewGroup(ha.Config{
			Seed: cfg.Seed,
			Machines: map[string]func() ha.StateMachine{
				dfs.MachineName: dfs.NameMachine(dfsCfg),
				jobMachine:      func() ha.StateMachine { return ha.NewJournalMachine() },
			},
			Metrics: eng.Reg,
		})
		fs = dfs.NewReplicated(dfsCfg, group)
		eng.SetJournal(ha.NewJournal(group, jobMachine))
	} else {
		fs = dfs.New(dfsCfg)
	}
	eng.SetDFS(fs)
	// One registry for the whole context: the DFS and fabric feed their
	// counters into the engine's registry so a single scrape sees compute,
	// storage and network side by side.
	fs.Instrument(eng.Reg)
	fabric.Instrument(eng.Reg)
	c := &Context{top: top, fabric: fabric, cluster: cl, fs: fs, engine: eng, group: group, seed: cfg.Seed}
	if len(cfg.Chaos) > 0 {
		targets := chaos.Targets{
			Nodes:   top.Size(),
			Compute: cl,
			Storage: fs,
			Network: fabric,
			Engine:  eng,
		}
		if group != nil {
			targets.Namenode = group
		}
		c.chaos = chaos.New(cfg.Chaos, cfg.Seed, targets, eng.Reg)
		eng.SetChaos(c.chaos)
	}
	if cfg.EnableTracing {
		c.tracer = trace.New()
		eng.SetTracer(c.tracer)
		// The same recorder reaches every layer that emits causally
		// linked spans: the fabric records shuffle fetches under the
		// fetching task, the control-plane group records failovers and
		// journal proposals, and the chaos controller marks injected
		// faults as instant events on the affected track — one merged
		// cross-node timeline per job.
		fabric.SetTracer(c.tracer)
		if group != nil {
			group.SetTracer(c.tracer)
		}
		c.chaos.SetTracer(c.tracer)
	}
	return c
}

// Engine exposes the underlying dataflow engine (metrics, checkpoints).
func (c *Context) Engine() *core.Engine { return c.engine }

// Metrics exposes the context-wide registry: engine, shuffle, DFS and
// network counters all land here. Serve it with metrics.Handler or
// obs.NewMux.
func (c *Context) Metrics() *metrics.Registry { return c.engine.Reg }

// Tracer returns the span recorder, or nil unless Config.EnableTracing
// was set. A nil recorder is safe to pass to obs.NewMux and
// trace.WriteChromeTrace.
func (c *Context) Tracer() *trace.Recorder { return c.tracer }

// Report analyzes everything recorded so far — per-stage wall clock and
// task percentiles, stragglers, shuffle partition skew — under the given
// job name. Stage breakdown and straggler detection need
// Config.EnableTracing; shuffle-skew analysis works regardless because it
// reads the metrics registry.
func (c *Context) Report(job string) *obs.Report {
	return obs.Build(job, c.tracer.Spans(), c.engine.Reg.Snapshot(), obs.Options{})
}

// Chaos exposes the fault-schedule controller, or nil unless Config.Chaos
// was set. Useful for asserting Done() after a run and for manual ticks.
func (c *Context) Chaos() *chaos.Controller { return c.chaos }

// Cluster exposes the executor cluster (failure injection, capacity).
func (c *Context) Cluster() *cluster.Cluster { return c.cluster }

// DFS exposes the distributed file system.
func (c *Context) DFS() *dfs.DFS { return c.fs }

// Fabric exposes the network cost model.
func (c *Context) Fabric() *netsim.Fabric { return c.fabric }

// Topology exposes the cluster shape.
func (c *Context) Topology() *topology.Topology { return c.top }

// NewKVStore starts a Dynamo-style KV store across the cluster's nodes
// with the given replication and quorum settings.
func (c *Context) NewKVStore(n, r, w int) (*kvstore.Store, error) {
	return kvstore.New(kvstore.Config{Fabric: c.fabric, N: n, R: r, W: w})
}

// NewStream starts an event-time streaming pipeline.
func (c *Context) NewStream(cfg stream.Config) *stream.Pipeline {
	return stream.New(cfg)
}
