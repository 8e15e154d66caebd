package experiments

import (
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/kvstore"
)

// txnNoEffect classifies the sharded plane's clean-abort errors: the
// operation is guaranteed to have left no trace, so the capture harness
// omits it from the history instead of recording a pending transaction.
func txnNoEffect(err error) bool {
	return errors.Is(err, kvstore.ErrTxnConflict) ||
		errors.Is(err, kvstore.ErrTxnAborted) ||
		errors.Is(err, kvstore.ErrKeyLocked) ||
		errors.Is(err, kvstore.ErrDeadlineExceeded)
}

// txnScenario is one E-TXN row: a chaos hook driven between capture
// waves against a fresh sharded plane.
type txnScenario struct {
	name string
	// hook runs between waves; nil for the baseline.
	hook func(s *kvstore.Sharded, wave int)
	// wantOK is the expected verdict — false only for the deliberate
	// dirty-read injection, which exists to prove the checker has teeth.
	wantOK bool
	// wantStepDown fails the row unless the fault deposed a leader.
	wantStepDown bool
}

// ETXNTransactions drives concurrent cross-range transactions through
// coordinator crashes at every 2PC protocol point, a replication-group
// partition spanning the commit point, range splits racing in-flight
// transactions, a gray one-way cut that inbound-isolates every group's
// leader, and a deliberate dirty-read injection. After every run
// the orphan recovery path is drained and three invariants are scored:
// the history is strictly serializable (except the dirty-read row, which
// must be caught), no participant lock survives, and no transaction
// record dangles.
func ETXNTransactions(p Params) *Table {
	waves := pick(p.Scale, 8, 20)
	clients := pick(p.Scale, 4, 6)
	t := &Table{
		ID:    "E-TXN",
		Title: "Sharded KV transactions under chaos: strict serializability + recovery",
		Note: fmt.Sprintf("%d clients x %d waves over 2 raft groups, multi-range 2PC; "+
			"every scenario ends with orphan recovery; locks/pending must drain to 0; "+
			"the dirty-read row is a deliberate fault the checker must catch", clients, waves),
		Cols: []string{"scenario", "ops", "committed", "aborted", "recovered", "locks", "pending", "strict-serial"},
	}

	crashPoints := []string{"begin", "prepare", "before-commit", "commit", "apply"}
	scenarios := []txnScenario{
		{name: "baseline", hook: nil, wantOK: true},
		{name: "coord-crash", wantOK: true, hook: func(sh *kvstore.Sharded, wave int) {
			// Rotate a one-shot coordinator crash through every protocol
			// point; recover two waves later so orphaned locks are held
			// across live traffic first.
			if wave%3 == 0 {
				_ = sh.OrphanNext(crashPoints[(wave/3)%len(crashPoints)])
			}
			if wave%3 == 2 {
				_ = sh.Recover()
			}
		}},
		{name: "partition-commit", wantOK: true, hook: func(sh *kvstore.Sharded, wave int) {
			// Cut the control group (txn records + half the ranges) into
			// leader vs followers across two waves, then heal + recover.
			switch wave {
			case 2, 8:
				leader := sh.Group(0).Leader()
				rest := make([]int, 0, 2)
				for id := 0; id < 3; id++ {
					if id != leader {
						rest = append(rest, id)
					}
				}
				sh.Group(0).Partition([]int{leader}, rest)
			case 4, 10:
				sh.Group(0).Heal()
				_ = sh.Recover()
			}
		}},
		{name: "split-race", wantOK: true, hook: func(sh *kvstore.Sharded, wave int) {
			// Split and merge the keyspace under live transactions; a
			// crashed split (wave 5) is left for recovery to finish.
			switch wave {
			case 1:
				_ = sh.Split("k02")
			case 3:
				_ = sh.Split("k05")
			case 5:
				_ = sh.OrphanNext("split-copy")
				_ = sh.Split("k03")
			case 7:
				_ = sh.Recover()
			case 9:
				_ = sh.Merge("k02")
			}
		}},
		{name: "gray-leader-cut", wantOK: true, wantStepDown: true, hook: func(sh *kvstore.Sharded, wave int) {
			// Every follower stops reaching its leader while the leader
			// still reaches them: CheckQuorum must depose it, and the
			// history is judged after the links heal.
			for g := 0; g < sh.Groups(); g++ {
				grp := sh.Group(g)
				switch wave {
				case 2:
					for m, lead := 0, grp.Leader(); m < grp.Members(); m++ {
						if m != lead {
							grp.CutLink(m, lead)
						}
					}
				case 6:
					grp.Heal()
				}
			}
			if wave == 6 {
				_ = sh.Recover()
			}
		}},
		{name: "dirty-read", wantOK: false, hook: func(sh *kvstore.Sharded, wave int) {
			sh.SetDirtyReads(wave >= 2)
		}},
	}

	// score drains orphan recovery, checks the invariants and adds the row.
	score := func(name string, sh *kvstore.Sharded, ops []check.TxnOp, wantOK, fired bool) {
		if err := sh.Recover(); err != nil {
			panic(fmt.Sprintf("E-TXN %s: recover: %v", name, err))
		}
		locks, err := sh.LockCount()
		if err != nil {
			panic(err)
		}
		pending, err := sh.PendingTxnRecords()
		if err != nil {
			panic(err)
		}
		verdict := check.CheckTxns(ops)
		diff := check.Diff{Name: "E-TXN/" + name, Compared: verdict.Ops,
			OK: verdict.OK == wantOK && locks == 0 && pending == 0 && fired}
		if !diff.OK {
			diff.Details = []string{fmt.Sprintf("verdict=%v want=%v locks=%d pending=%d fault-fired=%v: %s",
				verdict.OK, wantOK, locks, pending, fired, verdict.Detail)}
		}
		t.recordCheck(diff)
		t.AddRow(name,
			fmt.Sprintf("%d", len(ops)),
			fmt.Sprintf("%d", sh.Reg.Counter("txn_committed").Value()),
			fmt.Sprintf("%d", sh.Reg.Counter("txn_aborted").Value()),
			fmt.Sprintf("%d", sh.Reg.Counter("txn_recovered_aborted").Value()+sh.Reg.Counter("txn_recovered_resumed").Value()),
			fmt.Sprintf("%d", locks),
			fmt.Sprintf("%d", pending),
			verdictCell(diff))
	}

	for _, sc := range scenarios {
		sh := kvstore.NewSharded(kvstore.ShardedConfig{
			Seed: 42, Groups: 2, InitialSplits: []string{"k04"},
			MaxOpAttempts: 16, MaxTxnAttempts: 8,
		})
		hook := sc.hook
		ops := check.CaptureTxnHistory(sh, check.TxnCaptureConfig{
			Clients: clients, Waves: waves, Keys: 8, TxnKeys: 2,
			ReadFraction: 0.3, TxnFraction: 0.4,
			Seed:     uint64(1000 + len(sc.name)),
			NoEffect: txnNoEffect,
			BetweenWaves: func(wave int) {
				if hook != nil {
					hook(sh, wave)
				}
			},
		})
		sh.SetDirtyReads(false)
		fired := true
		if sc.wantStepDown {
			var n uint64
			for g := 0; g < sh.Groups(); g++ {
				n += sh.Group(g).StepDowns()
			}
			t.AddObs(fmt.Sprintf("%s: %d CheckQuorum step-downs", sc.name, n))
			fired = n > 0
		}
		score(sc.name, sh, ops, sc.wantOK, fired)
	}

	// Chaos-preset row: the "txn" preset replayed through the controller,
	// one tick per wave — coordinator crashes bracketing the commit point
	// with recovery passes in between.
	sh := kvstore.NewSharded(kvstore.ShardedConfig{
		Seed: 43, Groups: 2, InitialSplits: []string{"k04"},
		MaxOpAttempts: 16, MaxTxnAttempts: 8,
	})
	sched, err := chaos.Preset("txn", 2)
	if err != nil {
		panic(err)
	}
	ctl := chaos.New(sched, 43, chaos.Targets{Nodes: 2, Txn: sh}, sh.Reg)
	ops := check.CaptureTxnHistory(sh, check.TxnCaptureConfig{
		Clients: clients, Waves: waves, Keys: 8, TxnKeys: 2,
		ReadFraction: 0.3, TxnFraction: 0.4,
		Seed:         2000,
		NoEffect:     txnNoEffect,
		BetweenWaves: func(wave int) { ctl.Tick() },
	})
	score("chaos-preset", sh, ops, true, ctl.Done())
	t.recordFaults("E-TXN/chaos-preset", ctl)
	return t
}
