// Concurrent transactional history capture for the sharded KV plane.
// It runs on CaptureHistory's wave driver (kv.go): every client issues
// one operation per wave, the wave drains, then the BetweenWaves hook
// runs — chaos transitions (crashes, partitions, splits) never race an
// in-flight operation, and the barriers bound concurrency so the
// whole-history witness search in CheckTxns stays tractable. Only the
// draw and the operation body are this file's.
package check

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/rng"
)

// TxnKV is the transactional store surface the capture harness drives
// (implemented by *kvstore.Sharded).
type TxnKV interface {
	Get(ctx context.Context, key string) ([]byte, bool, error)
	Put(ctx context.Context, key string, value []byte) error
	Txn(ctx context.Context, reads []string, writes map[string][]byte) (map[string][]byte, error)
}

// TxnCaptureConfig parameterizes CaptureTxnHistory.
type TxnCaptureConfig struct {
	// Clients is the concurrent client count. Default 4.
	Clients int
	// Waves is how many operations each client issues. Default 25.
	Waves int
	// Keys is the keyspace size — keep it small so transactions actually
	// conflict. Default 8.
	Keys int
	// ReadFraction of operations are single-key gets; TxnFraction are
	// multi-key transactions; the rest are single-key puts of unique
	// values. Defaults 0.3 and 0.4.
	ReadFraction, TxnFraction float64
	// TxnKeys is how many distinct keys each transaction reads and
	// writes. Default 2.
	TxnKeys int
	// Seed drives every client's operation choices.
	Seed uint64
	// NoEffect classifies an error as "guaranteed no effect" (e.g. a
	// clean conflict abort): the operation is omitted from the history.
	// Any other error is ambiguous and recorded as pending; required.
	NoEffect func(error) bool
	// BetweenWaves, if set, runs after each wave with no operation in
	// flight — the place to tick chaos, crash coordinators, or split.
	BetweenWaves func(wave int)
}

// CaptureTxnHistory runs the concurrent transactional workload and
// returns the recorded operations. Failed gets are omitted (they
// observed nothing); failed puts and transactions are omitted when the
// error guarantees no effect, and otherwise recorded as pending
// (Return=InfTime) with their reads dropped — the client never saw them.
func CaptureTxnHistory(kv TxnKV, cfg TxnCaptureConfig) []TxnOp {
	if cfg.Keys <= 0 {
		cfg.Keys = 8
	}
	if cfg.TxnKeys <= 0 {
		cfg.TxnKeys = 2
	}
	if cfg.ReadFraction == 0 && cfg.TxnFraction == 0 {
		cfg.ReadFraction, cfg.TxnFraction = 0.3, 0.4
	}
	if cfg.NoEffect == nil {
		panic("check: TxnCaptureConfig.NoEffect is required")
	}

	h := NewHistory() // used only for its logical clock
	var mu sync.Mutex
	var out []TxnOp
	record := func(op TxnOp) {
		mu.Lock()
		out = append(out, op)
		mu.Unlock()
	}

	ctx := context.Background()
	waves(cfg.Clients, cfg.Waves, cfg.Seed, cfg.BetweenWaves, func(r *rng.RNG, c, wave int) func() {
		roll := r.Float64()
		key := fmt.Sprintf("k%02d", r.Intn(cfg.Keys))
		// Pre-draw the transaction's key set so the rng stream stays
		// deterministic regardless of which branch runs.
		tkeys := make([]string, 0, cfg.TxnKeys)
		seen := map[string]bool{}
		for len(tkeys) < cfg.TxnKeys && len(seen) < cfg.Keys {
			k := fmt.Sprintf("k%02d", r.Intn(cfg.Keys))
			if !seen[k] {
				seen[k] = true
				tkeys = append(tkeys, k)
			}
		}
		return func() {
			switch {
			case roll < cfg.ReadFraction:
				inv := h.Stamp()
				val, found, err := kv.Get(ctx, key)
				ret := h.Stamp()
				if err != nil {
					return // failed read: observed nothing
				}
				record(TxnOp{
					Client: c,
					Reads:  []TxnRead{{Key: key, Value: string(val), Found: found}},
					Invoke: inv, Return: ret,
				})
			case roll < cfg.ReadFraction+cfg.TxnFraction:
				value := fmt.Sprintf("c%d.w%d", c, wave)
				writes := make(map[string][]byte, len(tkeys))
				for _, k := range tkeys {
					writes[k] = []byte(value)
				}
				inv := h.Stamp()
				got, err := kv.Txn(ctx, tkeys, writes)
				ret := h.Stamp()
				op := TxnOp{Client: c, Invoke: inv, Return: ret}
				for _, k := range tkeys {
					op.Writes = append(op.Writes, TxnWrite{Key: k, Value: value})
				}
				if err != nil {
					if cfg.NoEffect(err) {
						return
					}
					op.Return = InfTime // ambiguous: may have committed
					record(op)
					return
				}
				for _, k := range tkeys {
					v, found := got[k]
					op.Reads = append(op.Reads, TxnRead{Key: k, Value: string(v), Found: found})
				}
				record(op)
			default:
				value := fmt.Sprintf("c%d.w%d", c, wave)
				inv := h.Stamp()
				err := kv.Put(ctx, key, []byte(value))
				ret := h.Stamp()
				if err != nil && cfg.NoEffect(err) {
					return
				}
				if err != nil {
					ret = InfTime
				}
				record(TxnOp{
					Client: c,
					Writes: []TxnWrite{{Key: key, Value: value}},
					Invoke: inv, Return: ret,
				})
			}
		}
	})
	return out
}
