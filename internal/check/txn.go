// Strict serializability checking for multi-key transactional histories.
// Unlike the per-key register model in linearize.go, transactions touch
// several keys atomically, so the history cannot be partitioned: the
// checker searches for ONE total order of all transactions that respects
// real time (strictness) and gives every transactional read the value of
// the latest preceding write to its key (serializability). Single-key
// gets and puts are degenerate one-operation transactions in the same
// order, which is what makes the verdict end-to-end: a dirty read leaks
// into the order as a read no serial witness can satisfy.
package check

import (
	"fmt"
	"sort"
	"strings"
)

// TxnRead is one key observation inside a transaction.
type TxnRead struct {
	// Key is the observed register.
	Key string
	// Value is the observed value; meaningful only when Found.
	Value string
	// Found reports whether the key existed at observation time.
	Found bool
}

// TxnWrite is one key mutation inside a transaction.
type TxnWrite struct {
	// Key is the mutated register.
	Key string
	// Value is the new value (ignored when Del).
	Value string
	// Del marks a transactional delete.
	Del bool
}

// TxnOp is one recorded transaction: all Reads observed and all Writes
// applied atomically at a single point between Invoke and Return.
type TxnOp struct {
	// Client identifies the issuing client (diagnostic only).
	Client int
	// Reads lists the observations; empty for blind writes.
	Reads []TxnRead
	// Writes lists the mutations; empty for read-only transactions.
	Writes []TxnWrite
	// Invoke and Return are logical timestamps from History.Stamp.
	// Return=InfTime marks a pending transaction whose effects are
	// unknown: the checker may order it (it committed) or omit it (it
	// aborted) — reads of a pending transaction are dropped by the
	// capture harness since they were never reported to the client.
	Invoke, Return int64
}

func (o TxnOp) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "c%d txn{", o.Client)
	for i, r := range o.Reads {
		if i > 0 {
			b.WriteString(" ")
		}
		if r.Found {
			fmt.Fprintf(&b, "r(%s)=%q", r.Key, r.Value)
		} else {
			fmt.Fprintf(&b, "r(%s)=absent", r.Key)
		}
	}
	if len(o.Reads) > 0 && len(o.Writes) > 0 {
		b.WriteString(" ")
	}
	for i, w := range o.Writes {
		if i > 0 {
			b.WriteString(" ")
		}
		if w.Del {
			fmt.Fprintf(&b, "del(%s)", w.Key)
		} else {
			fmt.Fprintf(&b, "w(%s,%q)", w.Key, w.Value)
		}
	}
	if o.Return == InfTime {
		fmt.Fprintf(&b, "} [%d,∞]", o.Invoke)
	} else {
		fmt.Fprintf(&b, "} [%d,%d]", o.Invoke, o.Return)
	}
	return b.String()
}

// CheckTxns checks a transactional history for strict serializability:
// there must exist a total order of the transactions that (a) respects
// real time — A before B whenever A.Return < B.Invoke — and (b) starts
// from an empty store and gives every read exactly the value of the
// latest preceding write to its key (or absent after none or a delete).
// Transactions with Return=InfTime are pending and may be omitted. The
// caller's slice is left as it is.
func CheckTxns(ops []TxnOp) Outcome {
	keys := map[string]struct{}{}
	for _, op := range ops {
		for _, r := range op.Reads {
			keys[r.Key] = struct{}{}
		}
		for _, w := range op.Writes {
			keys[w.Key] = struct{}{}
		}
	}
	sorted := append([]TxnOp(nil), ops...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Invoke < sorted[j].Invoke })
	out := Outcome{OK: true, Ops: len(ops), Keys: len(keys)}
	if longest, ok := witness(sorted); !ok {
		out.OK = false
		out.Detail = fmt.Sprintf("no serial witness over %d txns (longest valid prefix: %d); first txns: %s",
			len(sorted), longest, sample(sorted))
	}
	return out
}

// regState is one key's register value during the witness search.
type regState struct {
	value string
	found bool
}

// witness is the one Wing & Gong search behind both checkers: it looks
// for a serial order of ops, which the caller has sorted by Invoke, that
// respects real time and gives every read the value of the latest
// preceding write to its key, starting from an empty store. Pending ops
// may be left out. The memo key is the chosen-set bitmask plus the store
// image, the (linearized-set, state) memoization of Lowe/porcupine.
// longest is the most completed ops any explored order placed.
func witness(ops []TxnOp) (longest int, ok bool) {
	n := len(ops)
	// preds[i] lists operations that must precede i in any witness.
	preds := make([][]int, n)
	required := 0
	for i := range ops {
		if ops[i].Return != InfTime {
			required++
		}
		for j := range ops {
			if j != i && ops[j].Return < ops[i].Invoke {
				preds[i] = append(preds[i], j)
			}
		}
	}

	chosen := make([]byte, (n+7)/8)
	has := func(i int) bool { return chosen[i/8]&(1<<(i%8)) != 0 }
	set := func(i int) { chosen[i/8] |= 1 << (i % 8) }
	unset := func(i int) { chosen[i/8] &^= 1 << (i % 8) }

	state := map[string]regState{}
	visited := map[string]struct{}{}
	memoKey := func() string {
		var b strings.Builder
		b.Write(chosen)
		ks := make([]string, 0, len(state))
		for k := range state {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			st := state[k]
			if !st.found {
				continue // absent keys are not part of the image
			}
			b.WriteString(k)
			b.WriteByte(0)
			b.WriteString(st.value)
			b.WriteByte(0)
		}
		return b.String()
	}

	// fires reports whether op i's reads all hold in the current state.
	fires := func(i int) bool {
		for _, r := range ops[i].Reads {
			st := state[r.Key]
			if r.Found != st.found || (st.found && r.Value != st.value) {
				return false
			}
		}
		return true
	}

	var dfs func(done int) bool
	dfs = func(done int) bool {
		longest = max(longest, done)
		if done == required {
			return true
		}
		mk := memoKey()
		if _, seen := visited[mk]; seen {
			return false
		}
		visited[mk] = struct{}{}
		for i := 0; i < n; i++ {
			if has(i) {
				continue
			}
			eligible := true
			for _, j := range preds[i] {
				if !has(j) {
					eligible = false
					break
				}
			}
			if !eligible || !fires(i) {
				continue
			}
			// Apply writes, remembering the displaced image for undo.
			undo := make(map[string]regState, len(ops[i].Writes))
			for _, w := range ops[i].Writes {
				if _, dup := undo[w.Key]; !dup {
					undo[w.Key] = state[w.Key]
				}
				if w.Del {
					state[w.Key] = regState{}
				} else {
					state[w.Key] = regState{value: w.Value, found: true}
				}
			}
			nd := done
			if ops[i].Return != InfTime {
				nd++
			}
			set(i)
			if dfs(nd) {
				return true
			}
			unset(i)
			for k, st := range undo {
				state[k] = st
			}
		}
		return false
	}
	ok = dfs(0)
	return longest, ok
}

// sample renders up to four operations for failure diagnostics.
func sample[T fmt.Stringer](ops []T) string {
	parts := make([]string, 0, 5)
	for i, op := range ops {
		if i == 4 {
			parts = append(parts, "...")
			break
		}
		parts = append(parts, op.String())
	}
	return strings.Join(parts, ", ")
}
