package check

import (
	"slices"
	"testing"
)

// witnessValues is the value alphabet of fuzzed register histories.
var witnessValues = []string{"", "a", "b", "c"}

// decodeRegisterOps reads up to six register ops over keys x and y,
// four bytes each: kind (low two bits, 3 reads as 0), key (bit 2),
// pending (bit 3) and found (bit 4); the value index; the invoke stamp;
// the duration.
func decodeRegisterOps(data []byte) []Op {
	var ops []Op
	for ; len(data) >= 4 && len(ops) < 6; data = data[4:] {
		b := data[:4]
		op := Op{Client: len(ops), Kind: OpKind((b[0] & 3) % 3), Key: "x", Invoke: int64(b[2] % 16)}
		if b[0]&4 != 0 {
			op.Key = "y"
		}
		op.Return = op.Invoke + 1 + int64(b[3]%8)
		if b[0]&8 != 0 {
			op.Return = InfTime
		}
		op.Found = op.Kind == OpRead && b[0]&16 != 0
		if op.Kind == OpWrite || op.Found {
			op.Value = witnessValues[b[1]%4]
		}
		ops = append(ops, op)
	}
	return ops
}

// encodeRegisterOps is decodeRegisterOps's inverse for seed histories.
func encodeRegisterOps(ops []Op) []byte {
	var out []byte
	for _, op := range ops {
		b0, dur := byte(op.Kind), op.Return-op.Invoke-1
		if op.Key == "y" {
			b0 |= 4
		}
		if op.Return == InfTime {
			b0, dur = b0|8, 0
		}
		if op.Found {
			b0 |= 16
		}
		out = append(out, b0, byte(slices.Index(witnessValues, op.Value)), byte(op.Invoke), byte(dur))
	}
	return out
}

// bruteForceWitness tries every order of every subset of ops that holds
// all completed ops, and accepts the first that respects real time and
// replays against a map of registers with every read answered.
func bruteForceWitness(ops []Op) bool {
	for mask := 0; mask < 1<<len(ops); mask++ {
		var subset []int
		complete := true
		for i, op := range ops {
			if mask&(1<<i) != 0 {
				subset = append(subset, i)
			} else if op.Return != InfTime {
				complete = false
			}
		}
		if complete && anyOrder(subset, 0, func(order []int) bool { return serialOK(ops, order) }) {
			return true
		}
	}
	return false
}

// anyOrder reports whether ok holds for some permutation of idx[k:].
func anyOrder(idx []int, k int, ok func([]int) bool) bool {
	if k == len(idx) {
		return ok(idx)
	}
	for i := k; i < len(idx); i++ {
		idx[k], idx[i] = idx[i], idx[k]
		found := anyOrder(idx, k+1, ok)
		idx[k], idx[i] = idx[i], idx[k]
		if found {
			return true
		}
	}
	return false
}

// serialOK replays ops in order: no op may follow one that began after
// it returned, and every read must see its key's latest write.
func serialOK(ops []Op, order []int) bool {
	for a := range order {
		for b := a + 1; b < len(order); b++ {
			if ops[order[b]].Return < ops[order[a]].Invoke {
				return false
			}
		}
	}
	store := map[string]string{}
	for _, i := range order {
		op := ops[i]
		switch op.Kind {
		case OpWrite:
			store[op.Key] = op.Value
		case OpDelete:
			delete(store, op.Key)
		default:
			v, found := store[op.Key]
			if found != op.Found || v != op.Value {
				return false
			}
		}
	}
	return true
}

// FuzzWitnessMatchesBruteForce holds the one witness search to an
// exhaustive one: CheckOps on a register history, and CheckTxns on the
// same history as one-key transactions, must both accept exactly when
// some serial order exists.
func FuzzWitnessMatchesBruteForce(f *testing.F) {
	for _, ops := range [][]Op{
		// TestStaleReadRejected.
		seq(
			Op{Kind: OpWrite, Key: "x", Value: "a"},
			Op{Kind: OpWrite, Key: "x", Value: "b"},
			Op{Kind: OpRead, Key: "x", Value: "a", Found: true},
		),
		// TestReadReadInversionRejected.
		{
			{Kind: OpWrite, Key: "x", Value: "a", Invoke: 1, Return: 2},
			{Kind: OpWrite, Key: "x", Value: "b", Invoke: 3, Return: 10},
			{Kind: OpRead, Key: "x", Value: "b", Found: true, Invoke: 4, Return: 5},
			{Kind: OpRead, Key: "x", Value: "a", Found: true, Invoke: 6, Return: 7},
		},
		// TestCheckTxnsLostUpdateRejected, each read-modify-write split
		// into its read and its write over the same interval.
		{
			{Kind: OpWrite, Key: "x", Value: "a", Invoke: 1, Return: 2},
			{Kind: OpRead, Key: "x", Value: "a", Found: true, Invoke: 3, Return: 6},
			{Kind: OpWrite, Key: "x", Value: "b", Invoke: 3, Return: 6},
			{Kind: OpRead, Key: "x", Value: "a", Found: true, Invoke: 4, Return: 7},
			{Kind: OpWrite, Key: "x", Value: "c", Invoke: 4, Return: 7},
		},
	} {
		f.Add(encodeRegisterOps(ops))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeRegisterOps(data)
		want := bruteForceWitness(ops)
		txns := make([]TxnOp, len(ops))
		for i, op := range ops {
			txns[i] = op.txn()
		}
		if got := CheckOps(ops); got.OK != want {
			t.Fatalf("CheckOps OK=%v, brute force %v: %s\nops: %v", got.OK, want, got, ops)
		}
		if got := CheckTxns(txns); got.OK != want {
			t.Fatalf("CheckTxns OK=%v, brute force %v: %s\nops: %v", got.OK, want, got.Detail, ops)
		}
	})
}
