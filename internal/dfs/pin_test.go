package dfs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// The namenode stream pins nameMachine's wire behaviour to the commit
// before the namenode's two mutation paths became one: the constant was
// recorded there, so a command, response or snapshot byte that differs is
// a behaviour change. Commands are built here by hand, not by the
// package's encoders, so the pin holds the format itself. One difference
// is intended and left out of the hash: a response whose detail reports a
// truncated command is hashed as its status byte alone, because that
// detail's text changed when the decoders became one.
const (
	pinNameFrames = 2000
	pinNameSum    = "bb74aa671c670d1f72eadb754033528bdfefa09d4062ef5aaad103a419ae7320"
)

func pinStr(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

// pinNameCmd draws one well-formed namenode command over 8 paths and a
// 6-node topology; node 6 and hint 6 are out of range on purpose.
func pinNameCmd(r *rng.RNG) []byte {
	path := fmt.Sprintf("/f%d", r.Intn(8))
	node := binary.BigEndian.AppendUint64(nil, uint64(r.Intn(7)))
	switch x := r.Intn(100); {
	case x < 20:
		return binary.BigEndian.AppendUint32(pinStr([]byte{opCreate}, path), uint32(r.Intn(5)))
	case x < 50:
		cmd := binary.BigEndian.AppendUint64(pinStr([]byte{opSeal}, path), uint64(int64(r.Intn(8)-1)))
		return binary.BigEndian.AppendUint64(cmd, uint64(1+r.Intn(4096)))
	case x < 60:
		return pinStr([]byte{opDelete}, path)
	case x < 75:
		return append(append([]byte{opSetAlive}, node...), byte(r.Intn(2)))
	case x < 85:
		return []byte{opRereplicate}
	case x < 92:
		return append([]byte{opDecommission}, node...)
	}
	return binary.BigEndian.AppendUint64([]byte{opBalance}, math.Float64bits(float64(r.Intn(30))/100))
}

// pinMangle truncates cmd or flips one of its bits.
func pinMangle(r *rng.RNG, cmd []byte) []byte {
	if r.Intn(2) == 0 && len(cmd) > 1 {
		return cmd[:1+r.Intn(len(cmd)-1)]
	}
	out := append([]byte(nil), cmd...)
	out[r.Intn(len(out))] ^= 1 << r.Intn(8)
	return out
}

func pinHash(h hash.Hash, b []byte) {
	h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(b))))
	h.Write(b)
}

// TestNameMachineMatchesParent drives a seeded stream of all seven
// opcodes, every tenth command mangled, through one namenode machine. It
// hashes each command and response, and every 100 commands a snapshot,
// which a fresh machine restores and carries on from.
func TestNameMachineMatchesParent(t *testing.T) {
	cfg := Config{Topology: topology.TwoTier(2, 3, 4), Replication: 3, Seed: 31}
	fresh := NameMachine(cfg)
	r, h := rng.New(37), sha256.New()
	m := fresh()
	for i := 1; i <= pinNameFrames; i++ {
		cmd := pinNameCmd(r)
		if i%10 == 0 {
			cmd = pinMangle(r, cmd)
		}
		pinHash(h, cmd)
		resp := m.Apply(cmd)
		if len(resp) > 0 && resp[0] == errOther && strings.Contains(string(resp[1:]), "truncated") {
			resp = resp[:1]
		}
		pinHash(h, resp)
		if i%100 == 0 {
			snap := m.Snapshot()
			pinHash(h, snap)
			m = fresh()
			m.Restore(snap)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinNameSum {
		t.Fatalf("namenode stream checksum = %s, want %s (recorded on the parent commit)", got, pinNameSum)
	}
}
