package check

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/topology"
)

// TestCheckOpsOutcomesPinned hashes CheckOps's whole Outcome (verdict,
// counts, BadKey and Detail text) over seeded random register histories:
// up to ten operations over up to three keys, one in eight pending, with
// deletes, ghost reads and empty values. A change to the witness search
// that moves one verdict or one character of a failure's Detail fails it;
// record a deliberate change on the parent commit first.
func TestCheckOpsOutcomesPinned(t *testing.T) {
	const want, wantOK = uint64(0x6fffedfc920bb265), 6841
	h := fnv.New64a()
	r := rng.New(40)
	ok := 0
	for i := 0; i < 20000; i++ {
		out := CheckOps(randomRegisterHistory(r))
		if out.OK {
			ok++
		}
		fmt.Fprintf(h, "%t %d %d %q %q\n", out.OK, out.Ops, out.Keys, out.BadKey, out.Detail)
	}
	if got := h.Sum64(); got != want || ok != wantOK {
		t.Fatalf("digest %#x with %d linearizable, want %#x with %d", got, ok, want, wantOK)
	}
}

// randomRegisterHistory draws one register history with overlapping
// stamps, so both verdicts are common.
func randomRegisterHistory(r *rng.RNG) []Op {
	values := []string{"", "a", "b"}
	n := r.Intn(11)
	keys := 1 + r.Intn(3)
	ops := make([]Op, n)
	for i := range ops {
		op := Op{Client: r.Intn(4), Key: fmt.Sprintf("k%d", r.Intn(keys)), Invoke: int64(r.Intn(2*n + 1))}
		op.Return = op.Invoke + 1 + int64(r.Intn(4))
		switch roll := r.Intn(8); {
		case roll < 4:
			op.Kind = OpRead
			op.Found = r.Intn(3) > 0
			if op.Found {
				op.Value = values[r.Intn(len(values))]
				if r.Intn(8) == 0 {
					op.Value = "ghost" // a value no write produced
				}
			}
		case roll < 7:
			op.Kind, op.Value = OpWrite, values[r.Intn(len(values))]
		default:
			op.Kind = OpDelete
		}
		if r.Intn(8) == 0 {
			op.Return = InfTime
		}
		ops[i] = op
	}
	return ops
}

// pinLog records every store call a capture makes, each prefixed with
// the wave it ran in; BetweenWaves advances the wave.
type pinLog struct {
	mu   sync.Mutex
	wave int
	log  []string
}

func (l *pinLog) rec(format string, args ...any) {
	l.mu.Lock()
	l.log = append(l.log, fmt.Sprintf("w%d ", l.wave)+fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *pinLog) between(wave int) {
	l.rec("between %d", wave)
	l.mu.Lock()
	l.wave = wave + 1
	l.mu.Unlock()
}

// digest hashes the sorted call log, then the history: ops sorted by
// Invoke, cut into waves of clients ops (a wave's stamps all precede the
// next wave's), each wave's ops rendered without stamps and sorted.
func (l *pinLog) digest(clients int, n int, render func(i int) (invoke int64, text string)) uint64 {
	h := fnv.New64a()
	sort.Strings(l.log)
	fmt.Fprintln(h, strings.Join(l.log, "\n"))
	type rendered struct {
		invoke int64
		text   string
	}
	ops := make([]rendered, n)
	for i := range ops {
		ops[i].invoke, ops[i].text = render(i)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].invoke < ops[j].invoke })
	for start := 0; start < len(ops); start += clients {
		end := min(start+clients, len(ops))
		wave := make([]string, 0, end-start)
		for _, op := range ops[start:end] {
			wave = append(wave, op.text)
		}
		sort.Strings(wave)
		fmt.Fprintf(h, "wave %d: %s\n", start/clients, strings.Join(wave, " | "))
	}
	return h.Sum64()
}

var errPinAbsent = errors.New("absent")

// pinQuorum is a QuorumKV that keeps nothing: every Get misses.
type pinQuorum struct{ *pinLog }

func (f pinQuorum) Put(c topology.NodeID, key string, value []byte) (time.Duration, error) {
	f.rec("put %s @%d %q", key, c, value)
	return 0, nil
}

func (f pinQuorum) Get(c topology.NodeID, key string) ([]byte, time.Duration, error) {
	f.rec("get %s @%d", key, c)
	return nil, 0, errPinAbsent
}

func (f pinQuorum) Delete(c topology.NodeID, key string) (time.Duration, error) {
	f.rec("delete %s @%d", key, c)
	return 0, nil
}

// pinTxn is a TxnKV that keeps nothing: every read misses.
type pinTxn struct{ *pinLog }

func (f pinTxn) Get(_ context.Context, key string) ([]byte, bool, error) {
	f.rec("get %s", key)
	return nil, false, nil
}

func (f pinTxn) Put(_ context.Context, key string, value []byte) error {
	f.rec("put %s %q", key, value)
	return nil
}

func (f pinTxn) Txn(_ context.Context, reads []string, writes map[string][]byte) (map[string][]byte, error) {
	ws := make([]string, 0, len(writes))
	for k, v := range writes {
		ws = append(ws, fmt.Sprintf("%s=%q", k, v))
	}
	sort.Strings(ws)
	f.rec("txn %v %v", reads, ws)
	return map[string][]byte{}, nil
}

// TestCaptureDrawsPinned runs both captures against stores that answer
// without state and hashes what the clients asked for: every call with
// its wave, key set, coordinator and value, and the recorded history
// wave by wave. It pins every rng draw the captures make; record a
// deliberate change on the parent commit first.
func TestCaptureDrawsPinned(t *testing.T) {
	for i, c := range []struct {
		cfg  CaptureConfig
		want uint64
	}{
		{CaptureConfig{Clients: 3, Waves: 6, Keys: 4, Nodes: 3, ReadFraction: 0.4, DeleteFraction: 0.2, Seed: 7}, 0x975ec85251e62c17},
		{CaptureConfig{Clients: 5, Waves: 4, Keys: 2, Nodes: 8, DeleteFraction: 0.3, Seed: 8}, 0x47c5c0d152d128d5},
		{CaptureConfig{Seed: 11}, 0x8f2c350bdfed60e5},
	} {
		l := &pinLog{}
		cfg := c.cfg
		cfg.IsNotFound = func(err error) bool { return err == errPinAbsent }
		cfg.BetweenWaves = l.between
		ops := CaptureHistory(pinQuorum{l}, cfg).Ops()
		clients := cfg.Clients
		if clients == 0 {
			clients = 4 // the default
		}
		if got := l.digest(clients, len(ops), func(i int) (int64, string) {
			op := ops[i]
			op.Invoke, op.Return = 0, 0
			return ops[i].Invoke, op.String()
		}); got != c.want {
			t.Errorf("CaptureHistory case %d: digest %#x, want %#x", i, got, c.want)
		}
	}
	for i, c := range []struct {
		cfg  TxnCaptureConfig
		want uint64
	}{
		{TxnCaptureConfig{Clients: 3, Waves: 6, Keys: 3, TxnKeys: 3, Seed: 7}, 0x7a1cd7477326929c},
		{TxnCaptureConfig{Clients: 2, Waves: 5, Keys: 5, ReadFraction: 0.2, TxnFraction: 0.5, Seed: 9}, 0x363b70e4aa4e8286},
		{TxnCaptureConfig{Seed: 11}, 0x36429443e10ac4dc},
	} {
		l := &pinLog{}
		cfg := c.cfg
		cfg.NoEffect = func(error) bool { return false }
		cfg.BetweenWaves = l.between
		ops := CaptureTxnHistory(pinTxn{l}, cfg)
		clients := cfg.Clients
		if clients == 0 {
			clients = 4 // the default
		}
		if got := l.digest(clients, len(ops), func(i int) (int64, string) {
			op := ops[i]
			op.Invoke, op.Return = 0, 0
			return ops[i].Invoke, op.String()
		}); got != c.want {
			t.Errorf("CaptureTxnHistory case %d: digest %#x, want %#x", i, got, c.want)
		}
	}
}
