// Concurrent history capture for the quorum KV store, and the wave
// driver both captures run on. CaptureHistory drives concurrent clients
// against a store in synchronized waves — every client issues one
// operation, all operations complete, then the BetweenWaves hook runs
// (wire chaos ticks there). Failure transitions therefore never race an
// in-flight operation, which keeps the capture itself deterministic
// enough to check while still exercising true client concurrency within
// each wave.
package check

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/topology"
)

// QuorumKV is the store surface the capture harness drives
// (implemented by *kvstore.Store).
type QuorumKV interface {
	Put(coordinator topology.NodeID, key string, value []byte) (time.Duration, error)
	Get(coordinator topology.NodeID, key string) ([]byte, time.Duration, error)
	Delete(coordinator topology.NodeID, key string) (time.Duration, error)
}

// CaptureConfig parameterizes CaptureHistory.
type CaptureConfig struct {
	// Clients is the concurrent client count. Default 4.
	Clients int
	// Waves is how many operations each client issues. Default 25.
	Waves int
	// Keys is the keyspace size — keep it small so clients actually
	// contend. Default 8.
	Keys int
	// Nodes spreads client coordinators over [0, Nodes). Default 1.
	Nodes int
	// ReadFraction of operations are reads; DeleteFraction are deletes;
	// the rest are writes of unique values. Defaults 0.5 and 0.
	ReadFraction   float64
	DeleteFraction float64
	// Seed drives every client's operation choices.
	Seed uint64
	// IsNotFound classifies a Get error as "read observed an absent
	// key" rather than a failed operation; required.
	IsNotFound func(error) bool
	// BetweenWaves, if set, runs after each wave with no operation in
	// flight — the place to tick a chaos controller.
	BetweenWaves func(wave int)
}

// CaptureHistory runs the concurrent workload and returns the recorded
// history. Failed reads are omitted (they observed nothing); failed
// writes and deletes are recorded as pending (Return=InfTime) because a
// quorum failure may still have partially applied.
func CaptureHistory(kv QuorumKV, cfg CaptureConfig) *History {
	if cfg.Keys <= 0 {
		cfg.Keys = 8
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.ReadFraction == 0 && cfg.DeleteFraction == 0 {
		cfg.ReadFraction = 0.5
	}
	if cfg.IsNotFound == nil {
		panic("check: CaptureConfig.IsNotFound is required")
	}

	h := NewHistory()
	waves(cfg.Clients, cfg.Waves, cfg.Seed, cfg.BetweenWaves, func(r *rng.RNG, c, wave int) func() {
		key := fmt.Sprintf("k%02d", r.Intn(cfg.Keys))
		coord := topology.NodeID(r.Intn(cfg.Nodes))
		roll := r.Float64()
		return func() {
			switch {
			case roll < cfg.ReadFraction:
				inv := h.Stamp()
				val, _, err := kv.Get(coord, key)
				ret := h.Stamp()
				if err != nil && !cfg.IsNotFound(err) {
					return // failed read: observed nothing
				}
				h.Append(Op{
					Client: c, Kind: OpRead, Key: key,
					Value: string(val), Found: err == nil,
					Invoke: inv, Return: ret,
				})
			case roll < cfg.ReadFraction+cfg.DeleteFraction:
				inv := h.Stamp()
				_, err := kv.Delete(coord, key)
				ret := h.Stamp()
				if err != nil {
					ret = InfTime // ambiguous: may have partially applied
				}
				h.Append(Op{Client: c, Kind: OpDelete, Key: key, Invoke: inv, Return: ret})
			default:
				value := fmt.Sprintf("c%d.w%d", c, wave)
				inv := h.Stamp()
				_, err := kv.Put(coord, key, []byte(value))
				ret := h.Stamp()
				if err != nil {
					ret = InfTime
				}
				h.Append(Op{Client: c, Kind: OpWrite, Key: key, Value: value, Invoke: inv, Return: ret})
			}
		}
	})
	return h
}

// waves is the driver both captures share: n waves (default 25) of one
// operation per client (default 4 clients). draw runs on the calling
// goroutine, client by client, with that client's rng, so every draw is
// a function of seed alone; the operations it returns run concurrently,
// and between(wave), if set, runs once the whole wave has returned.
func waves(clients, n int, seed uint64, between func(wave int), draw func(r *rng.RNG, c, wave int) func()) {
	if clients <= 0 {
		clients = 4
	}
	if n <= 0 {
		n = 25
	}
	rngs := make([]*rng.RNG, clients)
	for c := range rngs {
		rngs[c] = rng.New(seed + uint64(c)*0x9e3779b97f4a7c15)
	}
	for wave := 0; wave < n; wave++ {
		var wg sync.WaitGroup
		for c, r := range rngs {
			op := draw(r, c, wave)
			wg.Add(1)
			go func() {
				defer wg.Done()
				op()
			}()
		}
		wg.Wait()
		if between != nil {
			between(wave)
		}
	}
}
