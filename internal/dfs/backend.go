package dfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/ha"
	"repro/internal/topology"
)

// metaBackend is the namenode as seen by the DFS data plane: every
// metadata mutation and read goes through it. localMeta embeds the
// state directly (the classic single-namenode layout); raftMeta
// proposes each mutation as a command on a replicated group, so the
// block map survives any single namenode crash.
type metaBackend interface {
	create(path string, repl int) error
	seal(path string, hint topology.NodeID, length int64) (BlockID, []topology.NodeID, error)
	deleteFile(path string) ([]blockRef, error)
	setAlive(n topology.NodeID, alive bool) error
	rereplicate() ([]moveRef, error)
	decommission(n topology.NodeID) ([]moveRef, error)
	balance(slack float64) ([]moveRef, error)
	// view runs fn against a current metadata replica. fn must only
	// read, and must not retain st past the call.
	view(fn func(st *nameState)) error
}

// localMeta is the in-process namenode: one nameState under a mutex.
type localMeta struct {
	mu sync.Mutex
	st *nameState
}

func (l *localMeta) create(path string, repl int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.create(path, repl)
}

func (l *localMeta) seal(path string, hint topology.NodeID, length int64) (BlockID, []topology.NodeID, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.seal(path, hint, length)
}

func (l *localMeta) deleteFile(path string) ([]blockRef, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.deleteFile(path)
}

func (l *localMeta) setAlive(n topology.NodeID, alive bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.setAlive(n, alive)
}

func (l *localMeta) rereplicate() ([]moveRef, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.rereplicate(), nil
}

func (l *localMeta) decommission(n topology.NodeID) ([]moveRef, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.decommission(n)
}

func (l *localMeta) balance(slack float64) ([]moveRef, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.balance(slack), nil
}

func (l *localMeta) view(fn func(st *nameState)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	fn(l.st)
	return nil
}

// MachineName is the name under which the namenode state machine is
// registered on a replicated control-plane group.
const MachineName = "nn"

// NameMachine returns an ha state-machine factory for the namenode
// metadata with the given (data-plane-identical) config. Register it in
// the group's Machines map under MachineName and hand the group to
// NewReplicated.
func NameMachine(cfg Config) func() ha.StateMachine {
	cfg = cfg.withDefaults()
	return func() ha.StateMachine { return &nameMachine{st: newNameState(cfg)} }
}

// nameMachine adapts nameState to the ha.StateMachine contract:
// commands are opcode-tagged encodings of the metaBackend mutations and
// responses carry either the result or a sentinel error code.
type nameMachine struct {
	st *nameState
}

// Command opcodes.
const (
	opCreate = iota + 1
	opSeal
	opDelete
	opSetAlive
	opRereplicate
	opDecommission
	opBalance
)

// Sentinel error codes on the response wire.
const (
	errOK = iota
	errExists
	errNotFound
	errNoLiveNode
	errNodeUnknown
	errOther
)

func encodeErr(err error) []byte {
	switch {
	case err == nil:
		return []byte{errOK}
	case errors.Is(err, ErrExists):
		return append([]byte{errExists}, err.Error()...)
	case errors.Is(err, ErrNotFound):
		return append([]byte{errNotFound}, err.Error()...)
	case errors.Is(err, ErrNoLiveNode):
		return append([]byte{errNoLiveNode}, err.Error()...)
	case errors.Is(err, ErrNodeUnknown):
		return append([]byte{errNodeUnknown}, err.Error()...)
	default:
		return append([]byte{errOther}, err.Error()...)
	}
}

// decodeResp splits a response into its payload and error. The detail
// string travels with the code so redirected clients see the same
// message a local caller would.
func decodeResp(resp []byte) ([]byte, error) {
	if len(resp) == 0 {
		return nil, errors.New("dfs: empty namenode response")
	}
	code, rest := resp[0], resp[1:]
	if code == errOK {
		return rest, nil
	}
	detail := string(rest)
	switch code {
	case errExists:
		return nil, fmt.Errorf("%w: %s", ErrExists, trimSentinel(detail, ErrExists))
	case errNotFound:
		return nil, fmt.Errorf("%w: %s", ErrNotFound, trimSentinel(detail, ErrNotFound))
	case errNoLiveNode:
		return nil, fmt.Errorf("%w: %s", ErrNoLiveNode, trimSentinel(detail, ErrNoLiveNode))
	case errNodeUnknown:
		return nil, ErrNodeUnknown
	default:
		return nil, errors.New(detail)
	}
}

// trimSentinel strips the sentinel's own text from a detail message so
// re-wrapping with %w does not duplicate it.
func trimSentinel(detail string, sentinel error) string {
	prefix := sentinel.Error() + ": "
	if len(detail) >= len(prefix) && detail[:len(prefix)] == prefix {
		return detail[len(prefix):]
	}
	return detail
}

func (m *nameMachine) Apply(cmd []byte) []byte {
	d := &mreader{buf: cmd}
	switch op := d.u8(); op {
	case opCreate:
		path := d.str()
		repl := int(d.u32())
		if d.err != nil {
			return encodeErr(d.err)
		}
		return encodeErr(m.st.create(path, repl))
	case opSeal:
		path := d.str()
		hint := topology.NodeID(int64(d.u64()))
		length := int64(d.u64())
		if d.err != nil {
			return encodeErr(d.err)
		}
		id, replicas, err := m.st.seal(path, hint, length)
		if err != nil {
			return encodeErr(err)
		}
		buf := []byte{errOK}
		buf = binary.BigEndian.AppendUint64(buf, uint64(id))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(replicas)))
		for _, r := range replicas {
			buf = binary.BigEndian.AppendUint64(buf, uint64(r))
		}
		return buf
	case opDelete:
		path := d.str()
		if d.err != nil {
			return encodeErr(d.err)
		}
		freed, err := m.st.deleteFile(path)
		if err != nil {
			return encodeErr(err)
		}
		buf := []byte{errOK}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(freed)))
		for _, ref := range freed {
			buf = binary.BigEndian.AppendUint64(buf, uint64(ref.id))
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(ref.replicas)))
			for _, r := range ref.replicas {
				buf = binary.BigEndian.AppendUint64(buf, uint64(r))
			}
		}
		return buf
	case opSetAlive:
		n := topology.NodeID(int64(d.u64()))
		alive := d.u8() == 1
		if d.err != nil {
			return encodeErr(d.err)
		}
		return encodeErr(m.st.setAlive(n, alive))
	case opRereplicate:
		return encodeMoves(m.st.rereplicate())
	case opDecommission:
		n := topology.NodeID(int64(d.u64()))
		if d.err != nil {
			return encodeErr(d.err)
		}
		plan, err := m.st.decommission(n)
		if err != nil {
			return encodeErr(err)
		}
		return encodeMoves(plan)
	case opBalance:
		slack := math.Float64frombits(d.u64())
		if d.err != nil {
			return encodeErr(d.err)
		}
		return encodeMoves(m.st.balance(slack))
	default:
		return encodeErr(fmt.Errorf("dfs: unknown namenode opcode %d", op))
	}
}

func (m *nameMachine) Snapshot() []byte                 { return m.AppendSnapshot(nil) }
func (m *nameMachine) AppendSnapshot(dst []byte) []byte { return m.st.appendSnapshot(dst) }
func (m *nameMachine) Restore(snap []byte)              { m.st.restore(snap) }

func encodeMoves(plan []moveRef) []byte {
	buf := []byte{errOK}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(plan)))
	for _, mv := range plan {
		buf = binary.BigEndian.AppendUint64(buf, uint64(mv.id))
		buf = binary.BigEndian.AppendUint64(buf, uint64(mv.src))
		buf = binary.BigEndian.AppendUint64(buf, uint64(mv.dst))
		buf = binary.BigEndian.AppendUint64(buf, uint64(mv.length))
	}
	return buf
}

func decodeMoves(payload []byte) ([]moveRef, error) {
	d := &mreader{buf: payload}
	n := d.count(32)
	plan := make([]moveRef, 0, n)
	for i := 0; i < n; i++ {
		mv := moveRef{
			id:  BlockID(d.u64()),
			src: topology.NodeID(int64(d.u64())),
			dst: topology.NodeID(int64(d.u64())),
		}
		mv.length = int64(d.u64())
		if d.err != nil {
			return nil, d.err
		}
		plan = append(plan, mv)
	}
	if d.err != nil {
		return nil, d.err
	}
	return plan, nil
}

// raftMeta proposes every metadata mutation as a command on a
// replicated group; reads run against the current leader's replica.
type raftMeta struct {
	g *ha.Group
}

func (r *raftMeta) propose(cmd []byte) ([]byte, error) {
	resp, err := r.g.Propose(MachineName, cmd)
	if err != nil {
		return nil, err
	}
	return decodeResp(resp)
}

func (r *raftMeta) create(path string, repl int) error {
	cmd := appendStr([]byte{opCreate}, path)
	cmd = binary.BigEndian.AppendUint32(cmd, uint32(repl))
	_, err := r.propose(cmd)
	return err
}

func (r *raftMeta) seal(path string, hint topology.NodeID, length int64) (BlockID, []topology.NodeID, error) {
	cmd := appendStr([]byte{opSeal}, path)
	cmd = binary.BigEndian.AppendUint64(cmd, uint64(int64(hint)))
	cmd = binary.BigEndian.AppendUint64(cmd, uint64(length))
	payload, err := r.propose(cmd)
	if err != nil {
		return 0, nil, err
	}
	return decodeSealed(payload)
}

func decodeSealed(payload []byte) (BlockID, []topology.NodeID, error) {
	d := &mreader{buf: payload}
	id := BlockID(d.u64())
	n := d.count(8)
	replicas := make([]topology.NodeID, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		replicas = append(replicas, topology.NodeID(int64(d.u64())))
	}
	if d.err != nil {
		return 0, nil, d.err
	}
	return id, replicas, nil
}

func (r *raftMeta) deleteFile(path string) ([]blockRef, error) {
	payload, err := r.propose(appendStr([]byte{opDelete}, path))
	if err != nil {
		return nil, err
	}
	return decodeFreed(payload)
}

func decodeFreed(payload []byte) ([]blockRef, error) {
	d := &mreader{buf: payload}
	n := d.count(12)
	freed := make([]blockRef, 0, n)
	for i := 0; i < n; i++ {
		ref := blockRef{id: BlockID(d.u64())}
		m := d.count(8)
		for j := 0; j < m && d.err == nil; j++ {
			ref.replicas = append(ref.replicas, topology.NodeID(int64(d.u64())))
		}
		if d.err != nil {
			return nil, d.err
		}
		freed = append(freed, ref)
	}
	if d.err != nil {
		return nil, d.err
	}
	return freed, nil
}

func (r *raftMeta) setAlive(n topology.NodeID, alive bool) error {
	cmd := binary.BigEndian.AppendUint64([]byte{opSetAlive}, uint64(int64(n)))
	if alive {
		cmd = append(cmd, 1)
	} else {
		cmd = append(cmd, 0)
	}
	_, err := r.propose(cmd)
	return err
}

func (r *raftMeta) rereplicate() ([]moveRef, error) {
	payload, err := r.propose([]byte{opRereplicate})
	if err != nil {
		return nil, err
	}
	return decodeMoves(payload)
}

func (r *raftMeta) decommission(n topology.NodeID) ([]moveRef, error) {
	cmd := binary.BigEndian.AppendUint64([]byte{opDecommission}, uint64(int64(n)))
	payload, err := r.propose(cmd)
	if err != nil {
		return nil, err
	}
	return decodeMoves(payload)
}

func (r *raftMeta) balance(slack float64) ([]moveRef, error) {
	cmd := binary.BigEndian.AppendUint64([]byte{opBalance}, math.Float64bits(slack))
	payload, err := r.propose(cmd)
	if err != nil {
		return nil, err
	}
	return decodeMoves(payload)
}

func (r *raftMeta) view(fn func(st *nameState)) error {
	return r.g.Query(MachineName, func(sm ha.StateMachine) error {
		fn(sm.(*nameMachine).st)
		return nil
	})
}
