package kvstore

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// Errors returned by store operations.
var (
	ErrNotFound      = errors.New("kvstore: key not found")
	ErrQuorumFailed  = errors.New("kvstore: quorum unavailable")
	ErrBadQuorum     = errors.New("kvstore: invalid N/R/W configuration")
	ErrUnknownNode   = errors.New("kvstore: unknown node")
	ErrStoreDegraded = errors.New("kvstore: too few live nodes")
)

// Config configures a Store.
type Config struct {
	// Fabric supplies topology and network cost accounting; required.
	Fabric *netsim.Fabric
	// N is the replica count; R and W the read/write quorum sizes.
	// Strong read-your-writes requires R+W > N. Defaults: N=3, R=2, W=2.
	N, R, W int
	// VNodes is the virtual node count per physical node (default 64).
	VNodes int
}

type versioned struct {
	value     []byte
	version   int64
	tombstone bool
}

type replica struct {
	mu   sync.RWMutex
	data map[string]versioned
	// prev retains the overwritten version of each key. It exists only
	// to power the stale-read fault injection (Store.SetStaleReads),
	// the deliberate linearizability violation the checker's self-test
	// must catch.
	prev map[string]versioned
}

// get returns key's current version or, when stale is set and the
// replica retains one, the version it overwrote.
func (rp *replica) get(key string, stale bool) (versioned, bool) {
	rp.mu.RLock()
	defer rp.mu.RUnlock()
	if stale {
		if v, ok := rp.prev[key]; ok {
			return v, true
		}
	}
	v, ok := rp.data[key]
	return v, ok
}

// put stores v if it is newer than what the replica holds, retaining
// the displaced version for the stale-read fault injection.
func (rp *replica) put(key string, v versioned) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if cur, ok := rp.data[key]; !ok || v.version > cur.version {
		if ok {
			rp.prev[key] = cur
		}
		rp.data[key] = v
	}
}

type hint struct {
	key  string
	v    versioned
	for_ topology.NodeID
}

// Store is the full cluster: ring, replicas, failure state and metrics.
// Safe for concurrent use.
type Store struct {
	cfg     Config
	ring    *ring
	replica []*replica

	alive []atomic.Bool
	clock atomic.Int64 // coordinator version clock
	stale atomic.Bool  // fault injection: serve overwritten versions (SetStaleReads)

	mu    sync.Mutex                 // guards hints
	hints map[topology.NodeID][]hint // held-by-node -> hints it carries

	// Metrics observed by the experiments.
	Reg            *metrics.Registry
	getLat, putLat *metrics.Histogram // get_latency_ns, put_latency_ns
	readRepairs    *metrics.Counter
}

// New builds a store across every node of the fabric's topology.
func New(cfg Config) (*Store, error) {
	if cfg.Fabric == nil {
		return nil, errors.New("kvstore: Config.Fabric is required")
	}
	size := cfg.Fabric.Topology().Size()
	if cfg.N <= 0 {
		cfg.N = 3
	}
	if cfg.R <= 0 {
		cfg.R = 2
	}
	if cfg.W <= 0 {
		cfg.W = 2
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 64
	}
	if cfg.N > size {
		cfg.N = size
	}
	if cfg.R > cfg.N || cfg.W > cfg.N {
		return nil, fmt.Errorf("%w: N=%d R=%d W=%d", ErrBadQuorum, cfg.N, cfg.R, cfg.W)
	}
	s := &Store{
		cfg:     cfg,
		ring:    newRing(size, cfg.VNodes, cfg.N),
		replica: make([]*replica, size),
		alive:   make([]atomic.Bool, size),
		hints:   map[topology.NodeID][]hint{},
		Reg:     metrics.NewRegistry(),
	}
	for i := range s.replica {
		s.replica[i] = &replica{data: map[string]versioned{}, prev: map[string]versioned{}}
		s.alive[i].Store(true)
	}
	s.getLat, s.putLat = s.Reg.Histogram("get_latency_ns"), s.Reg.Histogram("put_latency_ns")
	s.readRepairs = s.Reg.Counter("read_repairs")
	return s, nil
}

// SetStaleReads toggles a deliberate fault: reads serve each replica's
// previously overwritten version when one exists, and skip the
// read-back that makes reads linearizable. This exists so the
// linearizability checker's self-test can prove it has teeth — a
// sequential put/put/get under stale reads yields a history with no
// sequential witness.
func (s *Store) SetStaleReads(enabled bool) { s.stale.Store(enabled) }

// Config returns the effective configuration.
func (s *Store) Config() Config { return s.cfg }

// nextVersion issues a monotonically increasing version (a Lamport-style
// coordinator clock; sufficient because all coordinators share a process).
func (s *Store) nextVersion() int64 { return s.clock.Add(1) }

// Put writes key=value from the given coordinator node. It returns the
// simulated client latency: the W-th fastest replica acknowledgement
// (writes fan out in parallel). Hinted handoff covers dead replicas.
func (s *Store) Put(coordinator topology.NodeID, key string, value []byte) (time.Duration, error) {
	return s.write(coordinator, key, versioned{value: append([]byte(nil), value...), version: s.nextVersion()})
}

// Delete writes a tombstone.
func (s *Store) Delete(coordinator topology.NodeID, key string) (time.Duration, error) {
	return s.write(coordinator, key, versioned{tombstone: true, version: s.nextVersion()})
}

func (s *Store) write(coordinator topology.NodeID, key string, v versioned) (time.Duration, error) {
	prefs := s.ring.preferenceList(key)
	var buf [8]time.Duration // spills to the heap only when N > 8
	acks := buf[:0]
	var deadTargets []topology.NodeID
	for _, n := range prefs {
		if s.alive[n].Load() {
			s.replica[n].put(key, v)
			acks = append(acks, s.rtt(coordinator, n, int64(len(v.value))))
		} else {
			deadTargets = append(deadTargets, n)
		}
	}
	// Hinted handoff: sloppy quorum via the first live ring successors
	// outside the preference list. An exhausted ring (ErrNoReplicas)
	// means no live handoff target exists; the quorum check below then
	// decides the outcome with that cause attached rather than a
	// silently shrunken quorum.
	var handoffErr error
	if len(deadTargets) > 0 {
		succ, err := s.ring.successors(key, len(deadTargets), func(n topology.NodeID) bool {
			return !s.alive[n].Load() || slices.Contains(prefs, n)
		})
		if err != nil {
			handoffErr = err
			s.Reg.Counter("handoff_no_replicas").Inc()
		}
		for i, holder := range succ {
			s.mu.Lock()
			s.hints[holder] = append(s.hints[holder], hint{key: key, v: v, for_: deadTargets[i]})
			s.mu.Unlock()
			// Get reads only the preference list: the sloppy copy counts
			// toward W and reaches its owner by hint delivery.
			s.replica[holder].put(key, v)
			acks = append(acks, s.rtt(coordinator, holder, int64(len(v.value))))
			s.Reg.Counter("hinted_handoffs").Inc()
		}
	}
	if len(acks) < s.cfg.W {
		s.Reg.Counter("put_failures").Inc()
		if handoffErr != nil {
			return 0, fmt.Errorf("%w: %d/%d write acks: %w", ErrQuorumFailed, len(acks), s.cfg.W, handoffErr)
		}
		return 0, fmt.Errorf("%w: %d/%d write acks", ErrQuorumFailed, len(acks), s.cfg.W)
	}
	insertionSort(acks, func(a, b time.Duration) bool { return a < b })
	lat := acks[s.cfg.W-1]
	s.putLat.ObserveDuration(lat)
	return lat, nil
}

// Get reads key from the given coordinator node, contacting R live
// replicas and returning the newest version. The latency is the R-th
// fastest replica response (reads fan out in parallel).
//
// Before returning, the winning version is written back to every live
// replica in the preference list that lacks it (read repair, upgraded
// to the ABD second phase): once a read returns version v, every
// subsequent read observes a version >= v, which closes the read-read
// inversion a concurrent, partially applied write could otherwise
// expose. The linearizability checker (internal/check) verifies exactly
// this property against captured histories.
func (s *Store) Get(coordinator topology.NodeID, key string) ([]byte, time.Duration, error) {
	stale := s.stale.Load()
	type resp struct {
		node topology.NodeID
		v    versioned
		ok   bool
		lat  time.Duration
	}
	var buf [8]resp // spills to the heap only when N > 8
	resps := buf[:0]
	for _, n := range s.ring.preferenceList(key) {
		if !s.alive[n].Load() {
			continue
		}
		v, ok := s.replica[n].get(key, stale)
		sz := int64(64)
		if ok {
			sz += int64(len(v.value))
		}
		resps = append(resps, resp{node: n, v: v, ok: ok, lat: s.rtt(coordinator, n, sz)})
	}
	if len(resps) < s.cfg.R {
		s.Reg.Counter("get_failures").Inc()
		return nil, 0, fmt.Errorf("%w: %d/%d read responses", ErrQuorumFailed, len(resps), s.cfg.R)
	}
	// Contact the R fastest replicas (closest-first fan-out).
	insertionSort(resps, func(a, b resp) bool { return a.lat < b.lat })
	contacted := resps[:s.cfg.R]
	lat := contacted[s.cfg.R-1].lat

	// Resolve: newest version among contacted replicas wins.
	var newest versioned
	found := false
	for _, r := range contacted {
		if r.ok && r.v.version > newest.version {
			newest = r.v
			found = true
		}
	}
	// Read write-back: the winning version must be durable at every
	// live preference replica before the read returns (the stale-read
	// fault skips this, which is part of what makes it a fault).
	if found && !stale {
		for _, r := range resps {
			if !r.ok || r.v.version < newest.version {
				s.replica[r.node].put(key, newest)
				s.readRepairs.Inc()
			}
		}
	}
	s.getLat.ObserveDuration(lat)
	if !found || newest.tombstone {
		return nil, lat, ErrNotFound
	}
	return append([]byte(nil), newest.value...), lat, nil
}

// insertionSort orders xs stably by less. For up to 12 elements it is
// exactly what sort.Slice does (pdqsort insertion-sorts short slices), so
// ties keep the order sort.Slice gave them, without its reflection.
func insertionSort[T any](xs []T, less func(a, b T) bool) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// rtt models one request/response exchange between coordinator and replica.
func (s *Store) rtt(a, b topology.NodeID, bytes int64) time.Duration {
	// Request is small; response carries the payload. Add a fixed server
	// processing cost so even local operations take nonzero time.
	const serverCost = 2 * time.Microsecond
	return s.cfg.Fabric.Cost(a, b, 64) + s.cfg.Fabric.Cost(b, a, bytes) + serverCost
}

// FailNode marks a node down. Subsequent operations route around it.
func (s *Store) FailNode(n topology.NodeID) error {
	if int(n) < 0 || int(n) >= len(s.alive) {
		return ErrUnknownNode
	}
	s.alive[n].Store(false)
	return nil
}

// RecoverNode revives a node and delivers any hints held for it.
func (s *Store) RecoverNode(n topology.NodeID) error {
	if int(n) < 0 || int(n) >= len(s.alive) {
		return ErrUnknownNode
	}
	s.alive[n].Store(true)
	s.mu.Lock()
	// Collect hints destined for n from every holder.
	var deliver []hint
	for holder, hs := range s.hints {
		var keep []hint
		for _, h := range hs {
			if h.for_ == n {
				deliver = append(deliver, h)
			} else {
				keep = append(keep, h)
			}
		}
		s.hints[holder] = keep
	}
	s.mu.Unlock()
	for _, h := range deliver {
		s.replica[n].put(h.key, h.v)
		s.Reg.Counter("hints_delivered").Inc()
	}
	return nil
}

// PendingHints returns the number of undelivered hinted writes.
func (s *Store) PendingHints() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, hs := range s.hints {
		total += len(hs)
	}
	return total
}

// ReplicaCount returns how many replicas currently hold key (live or dead),
// for placement tests.
func (s *Store) ReplicaCount(key string) int {
	count := 0
	for _, rp := range s.replica {
		if _, ok := rp.get(key, false); ok {
			count++
		}
	}
	return count
}
