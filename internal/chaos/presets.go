package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// presets are the canned schedules in the text format Parse reads, with
// {victim} (node n/2), {last} (node n-1), {others} (nodes 0..n-2) and
// {halves} (0..n/2-1 | n/2..n-1) filled in for a cluster of n nodes.
var presets = map[string]string{
	"crash":     "2 crash {victim}\n8 revive {victim}",
	"partition": "2 partition {halves}\n6 heal",
	"straggler": "1 slow {last} 25ms\n12 unslow {last}",
	"flaky":     "1 flaky {victim} 0.8\n10 unflaky {victim}",
	"mixed": `1 slow {last} 20ms
2 flaky {victim} 0.9
3 crash 1
4 partition {halves}
6 heal
8 revive 1
10 unflaky {victim}
14 unslow {last}`,
	"stream":      "4 stream-crash {victim}\n10 stream-restore {victim}",
	"nn-crash":    "2 nn-crash leader\n4 nn-revive leader",
	"coord-crash": "4 coord-crash",
	"ha":          "2 nn-crash leader\n4 coord-crash\n5 nn-revive leader",
	// Traffic burst + tenant flood + a per-node slowdown on the serving
	// path. The slow node is modelled with degrade (a fabric cost
	// multiplier) rather than slow, because the KV quorum path is
	// network-bound: every rtt through the victim rises 4x, which is what
	// a saturated server looks like to its clients.
	"overload": `2 burst 3
4 tenant-flood 0 5
5 degrade {victim} 4
8 undegrade {victim}
9 unflood 0
10 unburst`,
	// Coordinator crashes bracketing the 2PC commit point, each followed
	// by a recovery pass: the pre-commit orphan must resolve as an abort,
	// the post-commit one as a resumed apply.
	"txn": "2 txn-crash before-commit\n4 txn-recover\n6 txn-crash commit\n8 txn-recover",
	// A one-way cut toward the last node (it can still send: the
	// inbound-isolation shape), then a flapping window on the same links,
	// then a non-transitive partial partition, and a total heal so the
	// run finishes clean.
	"gray": `2 link-cut {others} {last}
8 link-heal {others} {last}
10 flap {others} {last} 0.3
16 unflap {others} {last}
18 partial-partition 0|{last}
24 heal`,
}

// Preset builds a named canned schedule sized for a cluster of n nodes.
// Presets are what the CLI -chaos flag and scripts/chaos.sh use; every
// preset leaves the cluster fully healthy once its last event fires, so a
// job that outlives the schedule can always finish. PresetNames lists the
// compute presets (crash, partition, straggler, flaky, mixed) the EFT and
// chaos.sh sweeps run; the others target one subsystem and are used by
// its experiment: "stream" (E-SFT), "nn-crash", "coord-crash" and "ha"
// (E-HA), "overload" (E-OVL), "txn" (E-TXN) and "gray" (E-GRAY).
func Preset(name string, n int) (Schedule, error) {
	if n < 2 {
		return nil, fmt.Errorf("chaos: preset needs >= 2 nodes, got %d", n)
	}
	text, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown preset %q (want %s)", name, strings.Join(PresetNames(), ", "))
	}
	return Parse(strings.NewReplacer(
		"{victim}", strconv.Itoa(n/2),
		"{last}", strconv.Itoa(n-1),
		"{others}", fmt.Sprintf("0-%d", n-2),
		"{halves}", fmt.Sprintf("0-%d|%d-%d", n/2-1, n/2, n-1),
	).Replace(text))
}

// PresetNames lists the available presets, sorted.
func PresetNames() []string {
	names := []string{"crash", "partition", "straggler", "flaky", "mixed"}
	sort.Strings(names)
	return names
}

// Load resolves spec as a preset name first, then as a schedule text.
// CLIs call it with either a preset name or the contents of a schedule
// file.
func Load(spec string, nodes int) (Schedule, error) {
	if !strings.ContainsAny(spec, " \n\t") {
		if s, err := Preset(spec, nodes); err == nil {
			return s, nil
		}
	}
	return Parse(spec)
}
