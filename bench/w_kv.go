package main

import (
	"fmt"
	"time"
)

func kvKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%08d", prefix, i)
	}
	return keys
}

// ---- kv_mix ----------------------------------------------------------------

const (
	kvMixSkew     = 0.99
	kvMixReadFrac = 0.8
	kvMixValue    = 256
)

type kvMixInst struct {
	cfg    runCfg
	ring   *sutRing
	keys   []string
	pool   [][]byte
	shadow []uint16 // value-pool index each key holds
	z      *zipf
	ops    []kvOp
	lat    []int64
	fp     *fingerprint
}

func setupKVMix(cfg runCfg) (instance, error) {
	k := &kvMixInst{cfg: cfg, fp: newFingerprint()}
	k.keys = kvKeys("user", scaled(100_000, cfg.scale, 64))
	k.pool = genValuePool(cfg.seed, kvMixValue)
	k.shadow = make([]uint16, len(k.keys))
	k.z = newZipf(len(k.keys), kvMixSkew, roundSeed(cfg.seed, "kv_mix_perm", 0))
	k.ops = make([]kvOp, scaled(10_000, cfg.scale, 64))
	k.lat = make([]int64, 0, len(k.ops))
	var err error
	if k.ring, err = newSutRing(cfg.seed); err != nil {
		return nil, err
	}
	for i, key := range k.keys {
		k.shadow[i] = uint16(i % kvPoolSize)
		if _, err := k.ring.put(i%clusterNodes, key, k.pool[k.shadow[i]]); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	genKVRound(k.ops, cfg.seed, -1, k.z, kvMixReadFrac)
	k.fp.u64(uint64(len(k.keys)))
	k.fp.bytes(k.pool[1])
	for _, op := range k.ops {
		k.fp.u64(uint64(op.kind)<<48 | uint64(op.val)<<32 | uint64(op.key))
	}
	if bad, first := k.round(); bad > 0 {
		return nil, fmt.Errorf("warm-up: %d failed ops: %v", bad, first)
	}
	return k, nil
}

func (k *kvMixInst) fingerprint() uint64 { return k.fp.h }

// round issues k.ops in order from the single driver, coordinator
// round-robin over the nodes, checking every read against the shadow map.
func (k *kvMixInst) round() (bad int64, first error) {
	k.lat = k.lat[:0]
	for i, op := range k.ops {
		key := k.keys[op.key]
		var lat time.Duration
		var err error
		if op.kind == opGet {
			var v []byte
			v, lat, err = k.ring.get(i%clusterNodes, key)
			if err == nil && !checkRead(v, k.pool[k.shadow[op.key]]) {
				err = fmt.Errorf("get %s returned a value the driver did not write last", key)
			}
		} else {
			lat, err = k.ring.put(i%clusterNodes, key, k.pool[op.val])
			if err == nil {
				k.shadow[op.key] = op.val
			}
		}
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
		k.lat = append(k.lat, int64(lat))
	}
	return bad, first
}

func (k *kvMixInst) drive(m *meter) error {
	m.begin()
	for r := 0; m.more(); r++ {
		genKVRound(k.ops, k.cfg.seed, r, k.z, kvMixReadFrac)
		counting := m.counting()
		m.start()
		bad, first := k.round()
		m.stop(int64(len(k.ops)))
		if bad > 0 {
			m.fail(bad, "round %d: %v", r, first)
		}
		m.ok(int64(len(k.ops)) - bad)
		if counting {
			m.simLat = append(m.simLat, k.lat...)
		}
	}
	return nil
}

func (k *kvMixInst) probes(m *meter, out map[string]float64) error {
	ops := scaled(200_000, k.cfg.scale, 256)
	sp := m.rec.begin("probe kvstore ring (Get, Put)")
	rp, err := probeRing(k.cfg.seed, k.keys[:min(len(k.keys), 20_000)], k.pool, ops)
	m.rec.end(sp)
	if err != nil {
		return err
	}
	out["kvstore.ring_get_ns"] = rp.getNs
	out["kvstore.ring_put_ns"] = rp.putNs
	out["kvstore.ring_sim_get_us"] = rp.simGetUs
	out["kvstore.ring_sim_put_us"] = rp.simPutUs
	out["kvstore.ring_read_repairs"] = float64(k.ring.readRepairs())

	sp = m.rec.begin("probe netsim (Fabric.Cost)")
	costNs := probeFabricCost(k.cfg.seed, scaled(1_000_000, k.cfg.scale, 1000))
	m.rec.end(sp)
	out["netsim.cost_call_ns"] = costNs

	n := float64(len(k.ops))
	// Every Get and Put asks the fabric for a request and a response cost
	// per replica: 2 x N=3.
	m.share("kvstore ring (Get/Put incl. their Fabric.Cost calls)", (kvMixReadFrac*rp.getNs+(1-kvMixReadFrac)*rp.putNs)*n/1e6)
	m.share("netsim (6 Fabric.Cost calls per op, inside the line above)", 6*costNs*n/1e6)
	return nil
}

// ---- kv_txn ----------------------------------------------------------------

const (
	kvTxnSkew  = 0.9
	kvTxnValue = 64
	kvTxnOps   = 3 // ops per iteration: one Txn, one Put, one Get
)

type kvTxnInst struct {
	cfg    runCfg
	store  *sutSharded
	keys   []string
	splits []string
	pool   [][]byte
	shadow []uint16
	z      *zipf
	its    []txnIter
	lat    []int64
	fp     *fingerprint

	proposals0, ops int64
}

func setupKVTxn(cfg runCfg) (instance, error) {
	k := &kvTxnInst{cfg: cfg, fp: newFingerprint()}
	k.keys = kvKeys("key-", scaled(1024, cfg.scale, 16))
	n := len(k.keys)
	k.splits = []string{k.keys[n/4], k.keys[n/2], k.keys[3*n/4]}
	k.pool = genValuePool(cfg.seed, kvTxnValue)
	k.shadow = make([]uint16, n)
	k.z = newZipf(n, kvTxnSkew, roundSeed(cfg.seed, "kv_txn_perm", 0))
	k.its = make([]txnIter, scaled(50, cfg.scale, 4))
	k.lat = make([]int64, 0, len(k.its)*kvTxnOps)
	k.store = newSutSharded(cfg.seed, k.splits)
	for i, key := range k.keys {
		k.shadow[i] = uint16(i % kvPoolSize)
		if err := k.store.put(key, k.pool[k.shadow[i]]); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	genTxnRound(k.its, cfg.seed, -1, k.z)
	k.fp.u64(uint64(n))
	k.fp.bytes(k.pool[1])
	for _, it := range k.its {
		k.fp.u64(uint64(it.k1)<<32 | uint64(it.k2))
		k.fp.u64(uint64(it.putKey)<<32 | uint64(it.getKey))
		k.fp.u64(uint64(it.v1)<<32 | uint64(it.v2)<<16 | uint64(it.putVal))
	}
	if bad, first := k.round(); bad > 0 {
		return nil, fmt.Errorf("warm-up: %d failed ops: %v", bad, first)
	}
	return k, nil
}

func (k *kvTxnInst) fingerprint() uint64 { return k.fp.h }

// round issues k.its in order from the single driver. With one driver no
// transaction can lose a lock conflict, so any error is a failure.
func (k *kvTxnInst) round() (bad int64, first error) {
	k.lat = k.lat[:0]
	cost := k.store.virtualCost()
	done := func(err error) {
		now := k.store.virtualCost()
		k.lat = append(k.lat, int64(now-cost))
		cost = now
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	for _, it := range k.its {
		k1, k2 := k.keys[it.k1], k.keys[it.k2]
		got, err := k.store.txn([]string{k1, k2}, map[string][]byte{k1: k.pool[it.v1], k2: k.pool[it.v2]})
		if err == nil {
			if !checkRead(got[k1], k.pool[k.shadow[it.k1]]) || !checkRead(got[k2], k.pool[k.shadow[it.k2]]) {
				err = fmt.Errorf("txn read of %s,%s differs from the driver's shadow copy", k1, k2)
			}
			k.shadow[it.k1], k.shadow[it.k2] = it.v1, it.v2
		}
		done(err)

		err = k.store.put(k.keys[it.putKey], k.pool[it.putVal])
		if err == nil {
			k.shadow[it.putKey] = it.putVal
		}
		done(err)

		v, found, err := k.store.get(k.keys[it.getKey])
		if err == nil && (!found || !checkRead(v, k.pool[k.shadow[it.getKey]])) {
			err = fmt.Errorf("get %s differs from the driver's shadow copy", k.keys[it.getKey])
		}
		done(err)
	}
	return bad, first
}

func (k *kvTxnInst) drive(m *meter) error {
	k.proposals0 = k.store.proposals()
	m.begin()
	for r := 0; m.more(); r++ {
		genTxnRound(k.its, k.cfg.seed, r, k.z)
		counting := m.counting()
		n := int64(len(k.its) * kvTxnOps)
		m.start()
		bad, first := k.round()
		m.stop(n)
		if bad > 0 {
			m.fail(bad, "round %d: %v", r, first)
		}
		m.ok(n - bad)
		k.ops += n
		if counting {
			m.simLat = append(m.simLat, k.lat...)
		}
	}
	return nil
}

func (k *kvTxnInst) probes(m *meter, out map[string]float64) error {
	ops := scaled(1500, k.cfg.scale, 16)
	sp := m.rec.begin("probe kvstore sharded (Get, Put, Txn)")
	shp, err := probeSharded(k.cfg.seed, k.keys, k.splits, k.pool, ops)
	m.rec.end(sp)
	if err != nil {
		return err
	}
	out["kvstore.sharded_get_us"] = shp.getUs
	out["kvstore.sharded_put_us"] = shp.putUs
	out["kvstore.sharded_txn_us"] = shp.txnUs
	out["kvstore.sharded_txn_retries"] = float64(k.store.txnRetries())
	perOp := float64(k.store.proposals()-k.proposals0) / float64(k.ops)
	out["kvstore.sharded_proposals_per_op"] = perOp
	// Wall per op grows with the ops a store has served; this is the
	// median round of the last tenth of the run over that of the first.
	if tenth := len(m.walls) / 10; tenth > 0 {
		out["kvstore.sharded_slowdown_ratio"] = float64(quantile(m.walls[len(m.walls)-tenth:], 0.5)) /
			float64(quantile(m.walls[:tenth], 0.5))
	}

	sp = m.rec.begin("probe ha (Group.Propose)")
	proposeUs, allocBytes, ticks, err := probeHA(k.cfg.seed, scaled(20_000, k.cfg.scale, 64))
	m.rec.end(sp)
	if err != nil {
		return err
	}
	out["ha.propose_us"] = proposeUs
	out["ha.propose_alloc_bytes"] = allocBytes
	out["ha.ticks_per_propose"] = ticks

	sp = m.rec.begin("probe consensus (bare Raft cluster)")
	entries, compactions, err := probeConsensus(k.cfg.seed, scaled(20_000, k.cfg.scale, 256))
	m.rec.end(sp)
	if err != nil {
		return err
	}
	out["consensus.entries_per_propose"] = entries
	out["consensus.compactions"] = compactions

	n := float64(len(k.its))
	m.share("kvstore sharded (fresh store: Txn + Put + Get)", (shp.txnUs+shp.putUs+shp.getUs)*n/1e3)
	m.share("ha + consensus (Group.Propose on a trivial machine, inside the line above)", perOp*kvTxnOps*proposeUs*n/1e3)
	return nil
}
