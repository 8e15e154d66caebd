package check

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kvstore"
)

func TestCheckTxnsSerialHistoryOK(t *testing.T) {
	ops := []TxnOp{
		{Client: 0, Writes: []TxnWrite{{Key: "a", Value: "1"}, {Key: "b", Value: "1"}}, Invoke: 1, Return: 2},
		{Client: 1, Reads: []TxnRead{{Key: "a", Value: "1", Found: true}, {Key: "b", Value: "1", Found: true}}, Invoke: 3, Return: 4},
		{Client: 0, Writes: []TxnWrite{{Key: "a", Del: true}}, Invoke: 5, Return: 6},
		{Client: 1, Reads: []TxnRead{{Key: "a", Found: false}}, Invoke: 7, Return: 8},
	}
	if out := CheckTxns(ops); !out.OK {
		t.Fatalf("serial history rejected: %s", out.Detail)
	}
}

func TestCheckTxnsFracturedReadRejected(t *testing.T) {
	// a and b are written atomically; a read seeing the new a with the
	// old b observes a state no serial order produces.
	ops := []TxnOp{
		{Client: 0, Writes: []TxnWrite{{Key: "a", Value: "old"}, {Key: "b", Value: "old"}}, Invoke: 1, Return: 2},
		{Client: 0, Writes: []TxnWrite{{Key: "a", Value: "new"}, {Key: "b", Value: "new"}}, Invoke: 3, Return: 4},
		{Client: 1, Reads: []TxnRead{{Key: "a", Value: "new", Found: true}, {Key: "b", Value: "old", Found: true}}, Invoke: 5, Return: 6},
	}
	if out := CheckTxns(ops); out.OK {
		t.Fatal("fractured read accepted as strictly serializable")
	}
}

func TestCheckTxnsLostUpdateRejected(t *testing.T) {
	// Two increments both read 0 and both commit — a lost update. The
	// overlap makes either order real-time legal, but no serial order
	// lets both reads see 0.
	ops := []TxnOp{
		{Client: 0, Writes: []TxnWrite{{Key: "x", Value: "0"}}, Invoke: 1, Return: 2},
		{Client: 1, Reads: []TxnRead{{Key: "x", Value: "0", Found: true}}, Writes: []TxnWrite{{Key: "x", Value: "1a"}}, Invoke: 3, Return: 6},
		{Client: 2, Reads: []TxnRead{{Key: "x", Value: "0", Found: true}}, Writes: []TxnWrite{{Key: "x", Value: "1b"}}, Invoke: 4, Return: 7},
	}
	if out := CheckTxns(ops); out.OK {
		t.Fatal("lost update accepted as strictly serializable")
	}
}

func TestCheckTxnsRealTimeOrderEnforced(t *testing.T) {
	// Strictness: a read that starts after a committed write returned
	// must observe it (plain serializability would allow reordering).
	ops := []TxnOp{
		{Client: 0, Writes: []TxnWrite{{Key: "x", Value: "1"}}, Invoke: 1, Return: 2},
		{Client: 1, Reads: []TxnRead{{Key: "x", Found: false}}, Invoke: 3, Return: 4},
	}
	if out := CheckTxns(ops); out.OK {
		t.Fatal("stale read after real-time-ordered write accepted")
	}
	// The same observation is fine when the operations overlap.
	ops[1].Invoke = 1
	ops[1].Return = 3
	ops[0].Invoke = 2
	ops[0].Return = 4
	if out := CheckTxns(ops); !out.OK {
		t.Fatalf("overlapping stale read rejected: %s", out.Detail)
	}
}

func TestCheckTxnsPendingMayCommitOrAbort(t *testing.T) {
	// A pending txn's write may be observed...
	ops := []TxnOp{
		{Client: 0, Writes: []TxnWrite{{Key: "x", Value: "maybe"}}, Invoke: 1, Return: InfTime},
		{Client: 1, Reads: []TxnRead{{Key: "x", Value: "maybe", Found: true}}, Invoke: 2, Return: 3},
	}
	if out := CheckTxns(ops); !out.OK {
		t.Fatalf("pending write observed but rejected: %s", out.Detail)
	}
	// ...or never take effect.
	ops[1].Reads[0] = TxnRead{Key: "x", Found: false}
	if out := CheckTxns(ops); !out.OK {
		t.Fatalf("pending write omitted but rejected: %s", out.Detail)
	}
}

func TestCheckTxnsLeavesCallerOrder(t *testing.T) {
	// Out of Invoke order on purpose: the read returns after the write.
	ops := []TxnOp{
		{Client: 1, Reads: []TxnRead{{Key: "x", Value: "1", Found: true}}, Invoke: 3, Return: 4},
		{Client: 0, Writes: []TxnWrite{{Key: "x", Value: "1"}}, Invoke: 1, Return: 2},
	}
	want := fmt.Sprint(ops)
	if out := CheckTxns(ops); !out.OK {
		t.Fatalf("serial history rejected: %s", out.Detail)
	}
	if got := fmt.Sprint(ops); got != want {
		t.Fatalf("CheckTxns reordered its input:\n got %s\nwant %s", got, want)
	}
}

// shardedNoEffect classifies the sharded plane's clean-abort errors.
func shardedNoEffect(err error) bool {
	return errors.Is(err, kvstore.ErrTxnConflict) ||
		errors.Is(err, kvstore.ErrTxnAborted) ||
		errors.Is(err, kvstore.ErrKeyLocked) ||
		errors.Is(err, kvstore.ErrDeadlineExceeded)
}

func TestCaptureTxnHistoryCleanRunIsStrictlySerializable(t *testing.T) {
	s := kvstore.NewSharded(kvstore.ShardedConfig{Seed: 21, Groups: 2, InitialSplits: []string{"k04"}})
	ops := CaptureTxnHistory(s, TxnCaptureConfig{
		Clients: 4, Waves: 12, Keys: 8, TxnKeys: 2, Seed: 21,
		NoEffect: shardedNoEffect,
	})
	if len(ops) == 0 {
		t.Fatal("empty history")
	}
	out := CheckTxns(ops)
	if !out.OK {
		t.Fatalf("clean sharded run not strictly serializable: %s", out.Detail)
	}
	if out.Ops != len(ops) || out.Keys == 0 {
		t.Fatalf("outcome counts wrong: %+v over %d ops", out, len(ops))
	}
}

func TestCaptureTxnHistoryDirtyReadsCaught(t *testing.T) {
	// Teeth: with dirty reads injected mid-run the verdict must flip.
	// Reads served from overwritten versions produce observations no
	// serial witness reproduces.
	s := kvstore.NewSharded(kvstore.ShardedConfig{Seed: 33, Groups: 2})
	caught := false
	for seed := uint64(33); seed < 37 && !caught; seed++ {
		ops := CaptureTxnHistory(s, TxnCaptureConfig{
			Clients: 4, Waves: 10, Keys: 4, TxnKeys: 2, Seed: seed,
			ReadFraction: 0.5, TxnFraction: 0.3,
			NoEffect:     shardedNoEffect,
			BetweenWaves: func(wave int) { s.SetDirtyReads(wave >= 2) },
		})
		caught = !CheckTxns(ops).OK
		s.SetDirtyReads(false)
	}
	if !caught {
		t.Fatal("dirty-read injection never produced a non-serializable history")
	}
}

// faultyTxnKV is a serial in-memory store that fails chosen draws, so that
// every error branch of CaptureTxnHistory runs on every run, whatever the
// goroutine timing: a Get of k00 fails; a Txn or Put from client 0 fails
// with no effect, and one from client 1 fails after it took effect, which
// the capture must record as pending.
type faultyTxnKV struct {
	mu    sync.Mutex
	data  map[string]string
	fails [3]atomic.Int64 // failed gets, no-effect and ambiguous writes
}

var errNoEffect, errAmbiguous = errors.New("no effect"), errors.New("ambiguous")

func (f *faultyTxnKV) Get(_ context.Context, key string) ([]byte, bool, error) {
	if key == "k00" {
		f.fails[0].Add(1)
		return nil, false, errNoEffect
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.data[key]
	return []byte(v), ok, nil
}

func (f *faultyTxnKV) Put(ctx context.Context, key string, value []byte) error {
	_, err := f.Txn(ctx, nil, map[string][]byte{key: value})
	return err
}

// Txn writes values named c<client>.w<wave>, which say whose draw it is.
func (f *faultyTxnKV) Txn(_ context.Context, reads []string, writes map[string][]byte) (map[string][]byte, error) {
	var client string
	for _, v := range writes {
		client, _, _ = strings.Cut(string(v), ".")
	}
	if client == "c0" {
		f.fails[1].Add(1)
		return nil, errNoEffect
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	got := map[string][]byte{}
	for _, k := range reads {
		if v, ok := f.data[k]; ok {
			got[k] = []byte(v)
		}
	}
	for k, v := range writes {
		f.data[k] = string(v)
	}
	if client == "c1" {
		f.fails[2].Add(1)
		return nil, errAmbiguous
	}
	return got, nil
}

func TestCaptureTxnHistoryFailedDraws(t *testing.T) {
	kv := &faultyTxnKV{data: map[string]string{}}
	ops := CaptureTxnHistory(kv, TxnCaptureConfig{
		Clients: 3, Waves: 20, Keys: 3, Seed: 5,
		NoEffect: func(err error) bool { return errors.Is(err, errNoEffect) },
	})
	for i := range kv.fails {
		if kv.fails[i].Load() == 0 {
			t.Fatalf("failure kind %d never drawn: the test no longer covers its branch", i)
		}
	}
	pending := 0
	for _, op := range ops {
		switch {
		case op.Client == 0 && len(op.Writes) > 0:
			t.Errorf("no-effect write recorded: %v", op)
		case len(op.Reads) == 1 && op.Reads[0].Key == "k00" && len(op.Writes) == 0:
			t.Errorf("failed get recorded: %v", op)
		case op.Client == 1 && len(op.Writes) > 0:
			if op.Return != InfTime || len(op.Reads) > 0 {
				t.Errorf("ambiguous write not recorded as pending without reads: %v", op)
			}
			pending++
		}
	}
	if pending != int(kv.fails[2].Load()) {
		t.Errorf("%d pending writes recorded, %d ambiguous failures", pending, kv.fails[2].Load())
	}
	if out := CheckTxns(ops); !out.OK {
		t.Errorf("history of a serial store rejected: %s", out.Detail)
	}
}
