// Porcupine-style linearizability checking for the quorum KV store.
// Concurrent clients record invoke/return-stamped operations into a
// History; the checker partitions the history by key (keys of a KV map
// are independent registers, and linearizability is compositional) and
// decides each key's operations as a history of one-key transactions
// with witness, the Wing & Gong search CheckTxns runs (txn.go).
package check

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// OpKind distinguishes history operations.
type OpKind int

// Operation kinds over the register model.
const (
	// OpRead observed (Value, Found) for Key.
	OpRead OpKind = iota
	// OpWrite set Key to Value.
	OpWrite
	// OpDelete removed Key (a read after it observes Found=false).
	OpDelete
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return "delete"
	}
}

// InfTime is the Return stamp of an operation that never completed
// (e.g. a write that failed its quorum but may have partially applied).
// Such an operation is never real-time-ordered before anything, and the
// checker may either linearize it (its effect was observed) or omit it
// (it never took effect) — both are legal for a pending operation.
const InfTime = int64(math.MaxInt64)

// Op is one recorded client operation.
type Op struct {
	// Client identifies the issuing client (diagnostic only).
	Client int
	// Kind is the operation type.
	Kind OpKind
	// Key is the register the operation touched.
	Key string
	// Value is the written value (OpWrite) or observed value (OpRead).
	Value string
	// Found reports, for OpRead, whether a value was observed.
	Found bool
	// Invoke and Return are logical timestamps from History.Stamp.
	// A is real-time-before B iff A.Return < B.Invoke.
	Invoke, Return int64
}

func (o Op) String() string {
	switch o.Kind {
	case OpRead:
		if !o.Found {
			return fmt.Sprintf("c%d read(%s)=absent [%d,%d]", o.Client, o.Key, o.Invoke, o.Return)
		}
		return fmt.Sprintf("c%d read(%s)=%q [%d,%d]", o.Client, o.Key, o.Value, o.Invoke, o.Return)
	case OpWrite:
		return fmt.Sprintf("c%d write(%s,%q) [%d,%d]", o.Client, o.Key, o.Value, o.Invoke, o.Return)
	default:
		return fmt.Sprintf("c%d delete(%s) [%d,%d]", o.Client, o.Key, o.Invoke, o.Return)
	}
}

// History is a concurrent-safe operation log with a shared logical
// clock. Clients call Stamp around each operation and Append the result.
type History struct {
	clock atomic.Int64
	mu    sync.Mutex
	ops   []Op
}

// NewHistory returns an empty history.
func NewHistory() *History { return &History{} }

// Stamp returns the next logical timestamp. Stamps are totally ordered
// and strictly increasing across all clients.
func (h *History) Stamp() int64 { return h.clock.Add(1) }

// Append records one completed (or pending, Return=InfTime) operation.
func (h *History) Append(op Op) {
	h.mu.Lock()
	h.ops = append(h.ops, op)
	h.mu.Unlock()
}

// Ops returns a snapshot of the recorded operations.
func (h *History) Ops() []Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Op(nil), h.ops...)
}

// Outcome is a linearizability verdict.
type Outcome struct {
	// OK reports whether a sequential witness exists for every key.
	OK bool
	// Ops and Keys count what was checked.
	Ops, Keys int
	// BadKey names the first key with no witness (empty when OK).
	BadKey string
	// Detail explains the failure (empty when OK).
	Detail string
}

// String renders the verdict.
func (o Outcome) String() string {
	if o.OK {
		return fmt.Sprintf("linearizable (%d ops over %d keys)", o.Ops, o.Keys)
	}
	return fmt.Sprintf("NOT linearizable: key %q: %s", o.BadKey, o.Detail)
}

// Diff records the verdict as the oracle comparison name: Compared is
// the operation count and a failure's one detail is String().
func (o Outcome) Diff(name string) Diff {
	d := Diff{Name: name, OK: o.OK, Compared: o.Ops}
	if !o.OK {
		d.Details = []string{o.String()}
	}
	return d
}

// Linearizable checks h against the per-key register model.
func Linearizable(h *History) Outcome { return CheckOps(h.Ops()) }

// CheckOps checks a raw operation list against the per-key register
// model: for every key there must exist a total order of its operations
// that (a) respects real time (A before B whenever A.Return < B.Invoke),
// (b) starts from an absent register, and (c) gives every read exactly
// the value of the latest preceding write (or absent after none or a
// delete). Operations with Return=InfTime are pending and may be
// omitted from the witness.
func CheckOps(ops []Op) Outcome {
	out := Outcome{OK: true, Ops: len(ops)}
	byKey := map[string][]Op{}
	for _, op := range ops {
		byKey[op.Key] = append(byKey[op.Key], op)
	}
	out.Keys = len(byKey)
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic BadKey across runs
	for _, k := range keys {
		if detail, ok := checkKey(byKey[k]); !ok {
			return Outcome{OK: false, Ops: len(ops), Keys: len(byKey), BadKey: k, Detail: detail}
		}
	}
	return out
}

// checkKey decides one key's operations with the search CheckTxns runs,
// each operation a one-key transaction.
func checkKey(ops []Op) (string, bool) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Invoke < ops[j].Invoke })
	txns := make([]TxnOp, len(ops))
	for i, op := range ops {
		txns[i] = op.txn()
	}
	longest, ok := witness(txns)
	if ok {
		return "", true
	}
	return fmt.Sprintf("no sequential witness over %d ops (longest valid prefix: %d ops); first ops: %s",
		len(ops), longest, sample(ops)), false
}

// txn is o as a one-key transaction: a read becomes one TxnRead, a write
// one TxnWrite and a delete one TxnWrite with Del set.
func (o Op) txn() TxnOp {
	t := TxnOp{Client: o.Client, Invoke: o.Invoke, Return: o.Return}
	switch o.Kind {
	case OpRead:
		t.Reads = []TxnRead{{Key: o.Key, Value: o.Value, Found: o.Found}}
	case OpWrite:
		t.Writes = []TxnWrite{{Key: o.Key, Value: o.Value}}
	default:
		t.Writes = []TxnWrite{{Key: o.Key, Del: true}}
	}
	return t
}
