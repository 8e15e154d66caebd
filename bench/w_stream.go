package main

import (
	"fmt"
	"time"
)

// benchSource is the benchmark's own replayable event source: event i is
// streamEventAt(seed, i). It ends at limit, which the round hook pushes
// out one round at a time while the time box lasts.
type benchSource struct {
	seed       uint64
	off, limit int64
	keys       []string
}

func newBenchSource(seed uint64, limit int64) *benchSource {
	s := &benchSource{seed: seed, limit: limit, keys: make([]string, streamKeys)}
	for k := range s.keys {
		s.keys[k] = fmt.Sprintf("k%03d", k)
	}
	return s
}

func (s *benchSource) Next() (streamEvent, bool) {
	if s.off >= s.limit {
		return streamEvent{}, false
	}
	k, v, t := streamEventAt(s.seed, s.off)
	s.off++
	return streamEvent{Key: s.keys[k], Value: v, EventTime: time.Duration(t)}, true
}

func (s *benchSource) Offset() int64 { return s.off }

func (s *benchSource) SeekTo(off int64) error {
	if off < 0 || off > s.limit {
		return fmt.Errorf("bench source: seek to %d outside [0,%d]", off, s.limit)
	}
	s.off = off
	return nil
}

type streamInst struct {
	cfg   runCfg
	round int // events per round
	ckpt  int // checkpoint interval, events
	fp    *fingerprint
	stats streamStats
	// events read and panes fired by the last drive
	total, results int64
}

func setupStream(cfg runCfg) (instance, error) {
	s := &streamInst{cfg: cfg, round: scaled(50_000, cfg.scale, 512), fp: newFingerprint()}
	s.ckpt = scaled(streamCheckpointEvery, cfg.scale, 128)
	s.fp.u64(uint64(s.round))
	for i := int64(0); i < int64(s.round); i++ {
		k, v, t := streamEventAt(cfg.seed, i)
		s.fp.u64(uint64(k))
		s.fp.u64(uint64(v))
		s.fp.u64(uint64(t))
	}
	// Warm-up: one round through its own runner.
	res, st, err := sutStreamRun(newBenchSource(cfg.seed, int64(s.round)), s.ckpt, s.round, nil)
	if err != nil {
		return nil, err
	}
	if bad, first := checkWindows(res, cfg.seed, int64(s.round)); bad > 0 || st.lateDropped > 0 {
		return nil, fmt.Errorf("warm-up: %d bad panes, %d late events: %v", bad, st.lateDropped, first)
	}
	return s, nil
}

func (s *streamInst) fingerprint() uint64 { return s.fp.h }

func (s *streamInst) drive(m *meter) error {
	src := newBenchSource(s.cfg.seed, int64(s.round))
	// The Runner owns the loop; its Tick hook, fired every round-many
	// records, is the round boundary.
	tick := func() {
		m.stop(int64(s.round))
		if m.more() {
			src.limit += int64(s.round)
			m.start()
		}
	}
	m.begin()
	m.start()
	res, st, err := sutStreamRun(src, s.ckpt, s.round, tick)
	if err != nil {
		return err
	}
	s.stats, s.total = st, src.off
	bad, first := checkWindows(res, s.cfg.seed, src.off)
	if failed := bad + st.lateDropped; failed > 0 {
		m.fail(failed, "%d bad panes, %d late events: %v", bad, st.lateDropped, first)
	}
	m.ok(src.off - bad - st.lateDropped)
	s.results = int64(len(res))
	return nil
}

func (s *streamInst) probes(m *meter, out map[string]float64) error {
	n := scaled(400_000, s.cfg.scale, 2048)
	events := float64(s.round)

	sp := m.rec.begin("probe stream source")
	src := newBenchSource(s.cfg.seed, int64(n))
	evs := make([]streamEvent, 0, n)
	t0 := time.Now()
	for ev, ok := src.Next(); ok; ev, ok = src.Next() {
		evs = append(evs, ev)
	}
	sourceNs := float64(time.Since(t0)) / float64(n)
	m.rec.end(sp)
	out["stream.source_ns_per_event"] = sourceNs

	sp = m.rec.begin("probe stream send (checkpoints off)")
	sendNs, _, _, err := probeStreamSend(evs, 0, nil)
	m.rec.end(sp)
	if err != nil {
		return err
	}
	out["stream.send_ns_per_event"] = sendNs

	sp = m.rec.begin("probe stream checkpoints")
	_, ckptMs, ckptBytes, err := probeStreamSend(evs, s.ckpt, m.rec)
	m.rec.end(sp)
	if err != nil {
		return err
	}
	out["stream.checkpoint_ms_mean"] = ckptMs
	out["stream.checkpoint_bytes_mean"] = ckptBytes

	sp = m.rec.begin("probe stream runner (checkpoints off)")
	t0 = time.Now()
	_, _, err = sutStreamRun(newBenchSource(s.cfg.seed, int64(n)), 0, n, nil)
	out["stream.no_ckpt_throughput_per_s"] = float64(n) / time.Since(t0).Seconds()
	m.rec.end(sp)
	if err != nil {
		return err
	}

	out["stream.results_per_event"] = float64(s.results) / float64(s.total)
	out["stream.late_dropped"] = float64(s.stats.lateDropped)
	out["stream.sojourn_p50_us"] = float64(s.stats.sojournP50Ns) / 1e3

	m.share("bench source (event generation)", sourceNs*events/1e6)
	m.share("stream Send + Advance (checkpoints off)", sendNs*events/1e6)
	m.share("stream checkpoints (TriggerCheckpoint)", ckptMs*events/float64(s.ckpt))
	return nil
}
