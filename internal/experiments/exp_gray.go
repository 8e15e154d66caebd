package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/ha"
	"repro/internal/metrics"
	"repro/internal/topology"
)

const (
	// GrayNodes and GrayHorizon size every gray run: a 5-node cluster
	// probed once a tick for 300 ticks.
	GrayNodes   = 5
	GrayHorizon = 300

	// Defended bounds: the hardened cluster may lose at most this much
	// availability while a connected majority exists (one step-down plus
	// one election, with margin), and terms may grow by at most a handful
	// of real elections — never the per-tick inflation of the control.
	grayMaxLongest   = 80
	grayMaxTotal     = 120
	grayMaxTermDelta = 8

	// Control teeth: the undefended run must visibly livelock or wedge —
	// either runaway terms or a substantial unavailability total.
	grayCtlTermDelta = 4
	grayCtlUnavail   = 10
)

// GraySchedule is one named fault shape of the gray-failure sweep.
type GraySchedule struct {
	Name  string
	Sched chaos.Schedule
}

// GraySchedules are the asymmetric fault shapes the sweep covers, sized
// for a 5-node cluster with the leader rigged to node 0. The avail BENCH
// family replays the same three.
//
//   - one-way: nodes 0-3 stop reaching node 4 (it still sends) — the
//     inbound-isolated node whose escaping campaigns livelock vanilla Raft.
//   - partial: node 0 is pairwise cut from {2,3,4} both ways while node 1
//     bridges — a non-transitive partition that wedges or deposes an
//     undefended leader and exercises CheckQuorum on a defended one.
//   - flap: every directed link flips with p=0.25 per tick for 100 ticks —
//     the flapping-NIC shape; randomized election backoff keeps the
//     defended cluster from synchronized re-election storms.
func GraySchedules() []GraySchedule {
	var out []GraySchedule
	for _, gs := range []struct{ name, text string }{
		{"one-way", "4 link-cut 0-3 4\n154 link-heal 0-3 4\n"},
		{"partial", "4 partial-partition 0|2-4\n154 heal\n"},
		{"flap", "4 flap 0-4 0-4 0.25\n104 unflap 0-4 0-4\n105 heal\n"},
	} {
		sched, err := chaos.Parse(gs.text)
		if err != nil {
			panic(fmt.Sprintf("E-GRAY: %s: %v", gs.name, err))
		}
		out = append(out, GraySchedule{gs.name, sched})
	}
	return out
}

// GrayResult is one gray run: the availability report, MaxTerm growth
// from boot, step-downs, how many probes committed in how many delivery
// rounds in total, and the controller that drove the schedule.
type GrayResult struct {
	Avail                check.AvailReport
	TermDelta, StepDowns uint64
	Committed, Rounds    int64
	ctl                  *chaos.Controller
}

// GrayRun drives one cluster through a gray schedule, probing with one
// commit-confirmed proposal per tick.
func GrayRun(hardened bool, sched chaos.Schedule, seed uint64) GrayResult {
	var c *consensus.Cluster
	if hardened {
		c = consensus.NewHardenedCluster(GrayNodes, seed)
	} else {
		c = consensus.NewCluster(GrayNodes, seed)
	}
	if l := c.RunUntilLeader(400); l < 0 {
		panic("E-GRAY: no boot leader")
	}
	if !c.TransferLeadership(0, 80) {
		panic("E-GRAY: could not rig leader to node 0")
	}
	reg := metrics.NewRegistry()
	ctl := chaos.New(sched, seed, chaos.Targets{Nodes: GrayNodes, Consensus: c}, reg)
	boot := c.MaxTerm()

	res := GrayResult{ctl: ctl}
	pts := make([]check.AvailPoint, 0, GrayHorizon)
	for tick := int64(1); tick <= GrayHorizon; tick++ {
		ctl.AdvanceTo(tick)
		c.Tick()
		rounds, ok := c.ProposeAndCountRounds([]byte{byte(tick), byte(tick >> 8)})
		if ok {
			res.Committed++
			res.Rounds += int64(rounds)
		}
		pts = append(pts, check.AvailPoint{T: tick, OK: ok, MajorityConnected: c.HasConnectedMajority()})
	}
	res.Avail, res.TermDelta, res.StepDowns = check.Availability(pts), c.MaxTerm()-boot, c.StepDowns()
	return res
}

// EGRAYGrayFailures measures gray-failure tolerance: asymmetric faults
// (one-way link cuts, a non-transitive partial partition, link flapping)
// against a 5-node Raft cluster, control (vanilla) vs defended (PreVote +
// CheckQuorum + randomized backoff). One commit-confirmed proposal probes
// every tick; check.Availability charges only failures that happen while
// a connected majority exists. The control must show the livelock
// (runaway terms or a large unavailability total) and the defended run
// must bound both — each gated by a recorded oracle verdict. A final row
// captures a concurrent register history against a default-hardened
// ha.Group under one-way cuts and checks it linearizable.
func EGRAYGrayFailures(p Params) *Table {
	t := &Table{
		ID:    "E-GRAY",
		Title: "Gray-failure tolerance: asymmetric partitions vs Raft liveness hardening",
		Note:  "5 nodes, leader rigged to node 0, one commit-confirmed probe per tick over 300 ticks; failed/longest/unavail count only probes that failed while a connected majority existed; term-delta is MaxTerm growth from boot; defended = PreVote + CheckQuorum + randomized election backoff",
		Cols: []string{"schedule", "mode", "seed", "probes", "failed", "windows",
			"longest", "unavail", "term-delta", "stepdowns", "verdict"},
	}

	var entries []chaosEntry
	if p.Chaos != "" {
		entries = customChaos(t.ID, p.Chaos, GrayNodes)
	} else {
		for _, gs := range GraySchedules() {
			entries = append(entries, chaosEntry{gs.Name, gs.Sched})
		}
	}
	seeds := pick(p.Scale, []uint64{7}, []uint64{1, 7, 42})
	if p.Seed != 0 {
		seeds = []uint64{p.Seed}
	}

	for _, e := range entries {
		for _, seed := range seeds {
			for _, mode := range []string{"control", "defended"} {
				hardened := mode == "defended"
				run := GrayRun(hardened, e.sched, seed)
				rep, termDelta, stepdowns := run.Avail, run.TermDelta, run.StepDowns
				job := fmt.Sprintf("E-GRAY/%s/seed-%d/%s", e.name, seed, mode)

				var diff check.Diff
				switch {
				case hardened:
					diff = check.DiffAvailability(job, rep, grayMaxLongest, grayMaxTotal)
					if termDelta > grayMaxTermDelta {
						diff.OK = false
						diff.Details = append(diff.Details,
							fmt.Sprintf("term growth %d > bound %d", termDelta, grayMaxTermDelta))
					}
					diff = t.recordCheck(diff)
				case e.name == "flap":
					// Flap control runs are informational: vanilla Raft may or
					// may not livelock under a given coin, so nothing is gated.
					diff = check.Diff{Name: job, OK: true, Compared: rep.Probes}
				default:
					// Control teeth: the failure must actually appear, or the
					// defended rows are measuring against a strawman.
					diff = check.Diff{Name: job + "/teeth", OK: true, Compared: rep.Probes}
					if termDelta < grayCtlTermDelta && rep.Total < grayCtlUnavail {
						diff.OK = false
						diff.Details = []string{fmt.Sprintf(
							"control shows no livelock: term growth %d, unavailable %d", termDelta, rep.Total)}
					}
					diff = t.recordCheck(diff)
				}
				t.recordFaults(job, run.ctl)
				t.AddRow(e.name, mode, fmt.Sprintf("%d", seed),
					fmt.Sprintf("%d", rep.Probes),
					fmt.Sprintf("%d", rep.Failed),
					fmt.Sprintf("%d", rep.Windows),
					fmt.Sprintf("%d", rep.Longest),
					fmt.Sprintf("%d", rep.Total),
					fmt.Sprintf("%d", termDelta),
					fmt.Sprintf("%d", stepdowns),
					verdictCell(diff))
			}
		}
	}

	// Linearizability under gray faults: concurrent clients against a
	// replicated register (every read routed through the log), with both
	// followers' links toward the leader cut mid-capture and healed later.
	for _, seed := range seeds {
		kv, g := newGrayRegKV(seed)
		h := check.CaptureHistory(kv, check.CaptureConfig{
			Clients: 4, Waves: 12, Keys: 6, Nodes: 1,
			ReadFraction: 0.4, DeleteFraction: 0.1,
			Seed:       seed,
			IsNotFound: func(err error) bool { return errors.Is(err, errGrayNotFound) },
			BetweenWaves: func(wave int) {
				switch wave {
				case 2:
					l := g.Leader()
					for i := 0; i < g.Members(); i++ {
						if i != l {
							g.CutLink(i, l)
						}
					}
				case 8:
					g.Heal()
				}
			},
		})
		verdict := check.Linearizable(h)
		job := fmt.Sprintf("E-GRAY/ha-register/seed-%d", seed)
		diff := t.recordCheck(verdict.Diff(job))
		t.AddRow("ha-register", "defended", fmt.Sprintf("%d", seed),
			fmt.Sprintf("%d", verdict.Ops), "-", "-", "-", "-",
			"-", fmt.Sprintf("%d", g.StepDowns()), verdictCell(diff))
	}
	return t
}

// --- replicated register KV over ha.Group -------------------------------

// errGrayNotFound classifies "read observed an absent key".
var errGrayNotFound = errors.New("gray register: not found")

// regSM is a replicated string register map. A command is an op byte,
// 'p', 'g' or 'd', then the key and (for a put) the value, each behind its
// length (regCmd); a get returns "1"+value or "0", so reads route through
// the Raft log and the capture is linearizable by construction — the
// check then validates the exactly-once envelope and failover behaviour
// under the cuts.
type regSM struct{ m map[string]string }

func newRegSM() ha.StateMachine { return &regSM{m: map[string]string{}} }

// regCmd is the register command op applied to fields.
func regCmd(op byte, fields ...string) []byte {
	cmd := []byte{op}
	for _, f := range fields {
		cmd = ha.AppendString(cmd, f)
	}
	return cmd
}

func (r *regSM) Apply(cmd []byte) []byte {
	d := ha.NewDecoder(cmd)
	op, key := d.U8(), d.String()
	value := ""
	if op == 'p' {
		value = d.String()
	}
	if d.Err() != nil {
		return nil // no key, or a put without a value
	}
	switch op {
	case 'p':
		r.m[key] = value
	case 'd':
		delete(r.m, key)
	case 'g':
		if v, ok := r.m[key]; ok {
			return append([]byte("1"), v...)
		}
		return []byte("0")
	}
	return nil
}

func (r *regSM) Snapshot() []byte { return r.AppendSnapshot(nil) }

// AppendSnapshot writes the key count, then each key and its value in key
// order.
func (r *regSM) AppendSnapshot(dst []byte) []byte {
	keys := make([]string, 0, len(r.m))
	for k := range r.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = ha.AppendString(ha.AppendString(dst, k), r.m[k])
	}
	return dst
}

func (r *regSM) Restore(snap []byte) {
	r.m = map[string]string{}
	d := ha.NewDecoder(snap)
	for n := d.Count(4 + 4); n > 0 && d.Err() == nil; n-- {
		if k, v := d.String(), d.String(); d.Err() == nil {
			r.m[k] = v
		}
	}
}

// grayRegKV adapts the ha.Group register to the check.QuorumKV surface.
type grayRegKV struct{ g *ha.Group }

// newGrayRegKV builds the register's group. It compacts every 8 entries,
// so while the deposed leader is cut off inbound the other two compact
// past it, and the heal catches it up with an InstallSnapshot: this is
// how a -small run reaches snapshot install (scripts/reach.sh checks it).
func newGrayRegKV(seed uint64) (grayRegKV, *ha.Group) {
	g := ha.NewGroup(ha.Config{
		Members: 3, Seed: seed, CompactEvery: 8,
		Machines: map[string]func() ha.StateMachine{"reg": newRegSM},
	})
	return grayRegKV{g: g}, g
}

func (k grayRegKV) Put(_ topology.NodeID, key string, value []byte) (time.Duration, error) {
	_, err := k.g.Propose("reg", regCmd('p', key, string(value)))
	return 0, err
}

func (k grayRegKV) Get(_ topology.NodeID, key string) ([]byte, time.Duration, error) {
	resp, err := k.g.Propose("reg", regCmd('g', key))
	if err != nil {
		return nil, 0, err
	}
	if len(resp) == 0 || resp[0] == '0' {
		return nil, 0, errGrayNotFound
	}
	return resp[1:], 0, nil
}

func (k grayRegKV) Delete(_ topology.NodeID, key string) (time.Duration, error) {
	_, err := k.g.Propose("reg", regCmd('d', key))
	return 0, err
}
