package chaos

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/rng"
	"repro/internal/topology"
)

// kind is the one definition of a fault kind. Parse, Schedule.String,
// wildcard resolution, the timeline and the controller all read it from
// kinds, so adding a kind is one entry there.
type kind struct {
	form
	// undoes names the kind this one reverts: its wildcard node resolves
	// to the node the most recent wildcard of that kind drew.
	undoes Kind
	// track is the timeline track of the kind's instants: "" is the
	// node's executor track (node-NN), and a name ending in '-' gets the
	// event's node index appended the same way.
	track string
	// fire applies the event to every wired target. An error is a target
	// refusing it: the controller counts the event refused, not applied.
	fire func(c *Controller, t Targets, e Event) error
}

// form is one argument shape of the text format: the usage shown in
// errors, the exact argument count, and the reader and writer of those
// arguments side by side, so every accepted line renders back to itself.
type form struct {
	usage string
	nargs int
	read  func(e *Event, args []string) error
	write func(e Event) string
}

var (
	nodeForm   = form{"<node>", 1, readNode, writeNode}
	workerForm = form{"<worker>", 1, readNode, writeNode}
	memberForm = form{"<member|leader>", 1, func(e *Event, args []string) (err error) {
		e.Node, err = parseMember(args[0])
		return err
	}, writeNode}
	// Tenants are workload indices, not cluster nodes: no wildcard.
	tenantForm = form{"<tenant>", 1, func(e *Event, args []string) error {
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 {
			return fmt.Errorf("bad tenant %q", args[0])
		}
		e.Node = topology.NodeID(n)
		return nil
	}, writeNode}
	groupsForm = form{"<groups like 0-3|4-7>", 1, func(e *Event, args []string) (err error) {
		e.Group, err = parseGroups(args[0])
		return err
	}, func(e Event) string { return groupsString(e.Group, "|") }}
	linkForm = form{"<srcs> <dsts>", 2, readLink, func(e Event) string { return groupsString(e.Group, " ") }}
)

func readNode(e *Event, args []string) (err error) {
	e.Node, err = parseNode(args[0])
	return err
}

func writeNode(e Event) string { return nodeString(e.Node) }

// readLink reads a <srcs> <dsts> pair of node lists ("0-3 4", "0,2 1-4")
// into Group[0] (sources) and Group[1] (destinations).
func readLink(e *Event, args []string) error {
	srcs, err := parseNodeList(args[0])
	if err != nil {
		return err
	}
	dsts, err := parseNodeList(args[1])
	if err != nil {
		return err
	}
	e.Group = [][]topology.NodeID{srcs, dsts}
	return nil
}

// withValue extends f by one trailing float argument into Value, named
// what in usage and errors. It must be finite and accepted by ok.
func withValue(f form, what string, ok func(v float64) bool) form {
	usage := "<" + what + ">"
	if f.usage != "" {
		usage = f.usage + " " + usage
	}
	return form{usage, f.nargs + 1, func(e *Event, args []string) error {
		if f.read != nil {
			if err := f.read(e, args); err != nil {
				return err
			}
		}
		tok := args[f.nargs]
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || !ok(v) {
			return fmt.Errorf("bad value %q for <%s>", tok, what)
		}
		e.Value = v
		return nil
	}, func(e Event) string {
		if f.write == nil {
			return fmt.Sprintf("%g", e.Value)
		}
		return fmt.Sprintf("%s %g", f.write(e), e.Value)
	}}
}

func probability(v float64) bool { return v >= 0 && v <= 1 }
func nonNegative(v float64) bool { return v >= 0 }
func positive(v float64) bool    { return v > 0 }

func positiveProbability(v float64) bool { return v > 0 && v <= 1 }

var kinds = map[Kind]kind{
	Crash: {form: nodeForm, fire: func(_ *Controller, t Targets, e Event) error {
		if t.Compute != nil {
			_ = t.Compute.Kill(e.Node)
		}
		if t.Storage != nil {
			_ = t.Storage.KillNode(e.Node)
		}
		if t.Consensus != nil {
			t.Consensus.Crash(int(e.Node))
		}
		if t.KV != nil {
			_ = t.KV.FailNode(e.Node)
		}
		return nil
	}},
	Revive: {form: nodeForm, undoes: Crash, fire: func(_ *Controller, t Targets, e Event) error {
		if t.Compute != nil {
			_ = t.Compute.Revive(e.Node)
		}
		if t.Storage != nil {
			_ = t.Storage.ReviveNode(e.Node)
		}
		if t.Consensus != nil {
			t.Consensus.Restart(int(e.Node))
		}
		if t.KV != nil {
			_ = t.KV.RecoverNode(e.Node)
		}
		return nil
	}},
	// A partition the fabric refuses is not applied to Raft either: the
	// two layers never disagree about who reaches whom.
	Partition: {form: groupsForm, track: "network", fire: func(_ *Controller, t Targets, e Event) error {
		if t.Network != nil {
			if err := t.Network.SetPartition(e.Group...); err != nil {
				return err
			}
		}
		if t.Consensus != nil {
			groups := make([][]int, len(e.Group))
			for i, g := range e.Group {
				groups[i] = make([]int, len(g))
				for j, n := range g {
					groups[i][j] = int(n)
				}
			}
			t.Consensus.Partition(groups...)
		}
		return nil
	}},
	// Heal is total: it drops any active flap coins too, so a trailing
	// "T heal" leaves the run with a fully clean fabric.
	Heal: {track: "network", fire: func(c *Controller, t Targets, _ Event) error {
		if t.Network != nil {
			t.Network.Heal()
		}
		if t.Consensus != nil {
			t.Consensus.Heal()
		}
		c.flaps = nil
		c.heals.Inc()
		return nil
	}},
	// Non-transitive: every cross-group link is cut both ways but, unlike
	// Partition, nodes outside the listed groups still reach everyone.
	PartialPartition: {form: groupsForm, track: "network", fire: func(c *Controller, _ Targets, e Event) error {
		for i := range e.Group {
			for j := i + 1; j < len(e.Group); j++ {
				c.setLinks(true, e.Group[i], e.Group[j])
				c.setLinks(true, e.Group[j], e.Group[i])
			}
		}
		return nil
	}},
	LinkCut: {form: linkForm, track: "network", fire: func(c *Controller, _ Targets, e Event) error {
		c.setLinks(true, e.Group[0], e.Group[1])
		return nil
	}},
	LinkHeal: {form: linkForm, track: "network", fire: func(c *Controller, _ Targets, e Event) error {
		c.setLinks(false, e.Group[0], e.Group[1])
		return nil
	}},
	Flap: {form: withValue(linkForm, "flap probability", positiveProbability), track: "network",
		fire: func(c *Controller, _ Targets, e Event) error {
			c.flaps = append(c.flaps, &flapState{
				srcs:  e.Group[0],
				dsts:  e.Group[1],
				p:     e.Value,
				r:     rng.New(c.seed ^ (uint64(c.idx)+1)*0x9e3779b97f4a7c15),
				state: map[[2]int]bool{},
			})
			return nil
		}},
	Unflap: {form: linkForm, track: "network", fire: func(c *Controller, _ Targets, e Event) error {
		kept := c.flaps[:0]
		for _, f := range c.flaps {
			if !nodesEqual(f.srcs, e.Group[0]) || !nodesEqual(f.dsts, e.Group[1]) {
				kept = append(kept, f)
				continue
			}
			// Heal whatever the coin holds cut, in roll order (srcs x
			// dsts): ranging over the state map would make the transition
			// log follow Go's map order, not the seed.
			for _, src := range f.srcs {
				for _, dst := range f.dsts {
					if f.state[[2]int{int(src), int(dst)}] {
						c.setLink(false, src, dst)
					}
				}
			}
		}
		c.flaps = kept
		return nil
	}},
	Slow: {form: form{"<node> <duration>", 2, func(e *Event, args []string) error {
		if err := readNode(e, args); err != nil {
			return err
		}
		d, err := time.ParseDuration(args[1])
		if err != nil || d < 0 {
			return fmt.Errorf("bad duration %q", args[1])
		}
		e.Delay = d
		return nil
	}, func(e Event) string { return nodeString(e.Node) + " " + e.Delay.String() }},
		fire: func(_ *Controller, t Targets, e Event) error {
			if t.Compute == nil {
				return nil
			}
			return t.Compute.SetSlowdown(e.Node, e.Delay)
		}},
	Unslow: {form: nodeForm, undoes: Slow, fire: func(_ *Controller, t Targets, e Event) error {
		if t.Compute == nil {
			return nil
		}
		return t.Compute.SetSlowdown(e.Node, 0)
	}},
	Flaky: {form: withValue(nodeForm, "probability", probability), fire: func(_ *Controller, t Targets, e Event) error {
		if t.Engine != nil {
			t.Engine.SetNodeFailProb(e.Node, e.Value)
		}
		return nil
	}},
	Unflaky: {form: nodeForm, undoes: Flaky, fire: func(_ *Controller, t Targets, e Event) error {
		if t.Engine != nil {
			t.Engine.SetNodeFailProb(e.Node, 0)
		}
		return nil
	}},
	Degrade: {form: withValue(nodeForm, "factor", nonNegative), fire: func(_ *Controller, t Targets, e Event) error {
		if t.Network != nil {
			t.Network.SetNodeDegrade(e.Node, e.Value)
		}
		return nil
	}},
	Undegrade: {form: nodeForm, undoes: Degrade, fire: func(_ *Controller, t Targets, e Event) error {
		if t.Network != nil {
			t.Network.SetNodeDegrade(e.Node, 1)
		}
		return nil
	}},
	StreamCrash: {form: workerForm, track: "stream-worker-", fire: func(_ *Controller, t Targets, e Event) error {
		if t.Stream == nil {
			return nil
		}
		return t.Stream.CrashWorker(int(e.Node))
	}},
	StreamRestore: {form: workerForm, undoes: StreamCrash, track: "stream-worker-", fire: func(_ *Controller, t Targets, e Event) error {
		if t.Stream == nil {
			return nil
		}
		return t.Stream.RestoreWorker(int(e.Node))
	}},
	NNCrash: {form: memberForm, track: "ha", fire: func(_ *Controller, t Targets, e Event) error {
		if t.Namenode != nil {
			_ = t.Namenode.CrashMember(memberID(e.Node))
		}
		return nil
	}},
	NNRevive: {form: memberForm, track: "ha", fire: func(_ *Controller, t Targets, e Event) error {
		if t.Namenode != nil {
			_ = t.Namenode.ReviveMember(memberID(e.Node))
		}
		return nil
	}},
	CoordCrash: {track: "driver", fire: func(_ *Controller, t Targets, _ Event) error {
		if t.Engine != nil {
			t.Engine.CrashCoordinator()
		}
		return nil
	}},
	CorruptBlock: {form: nodeForm, fire: func(_ *Controller, t Targets, e Event) error {
		if t.Storage == nil {
			return nil
		}
		return t.Storage.CorruptBlock(e.Node)
	}},
	Burst: {form: withValue(form{}, "factor", positive), track: "clients", fire: func(_ *Controller, t Targets, e Event) error {
		if t.Overload != nil {
			t.Overload.SetBurst(e.Value)
		}
		return nil
	}},
	Unburst: {track: "clients", fire: func(_ *Controller, t Targets, _ Event) error {
		if t.Overload != nil {
			t.Overload.SetBurst(1)
		}
		return nil
	}},
	TenantFlood: {form: withValue(tenantForm, "factor", positive), track: "tenant-", fire: func(_ *Controller, t Targets, e Event) error {
		if t.Overload != nil {
			t.Overload.SetTenantFlood(int(e.Node), e.Value)
		}
		return nil
	}},
	Unflood: {form: tenantForm, track: "tenant-", fire: func(_ *Controller, t Targets, e Event) error {
		if t.Overload != nil {
			t.Overload.SetTenantFlood(int(e.Node), 1)
		}
		return nil
	}},
	// Point names are validated by the target (kvstore.Sharded refuses
	// unknown ones, and the controller counts the event refused); the
	// parser only requires one token.
	TxnCrash: {form: form{"<point>", 1, func(e *Event, args []string) error {
		e.Point = args[0]
		return nil
	}, func(e Event) string { return e.Point }},
		track: "txn", fire: func(_ *Controller, t Targets, e Event) error {
			if t.Txn == nil {
				return nil
			}
			return t.Txn.OrphanNext(e.Point)
		}},
	TxnRecover: {track: "txn", fire: func(_ *Controller, t Targets, _ Event) error {
		if t.Txn == nil {
			return nil
		}
		return t.Txn.Recover()
	}},
}
