package dfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/ha"
	"repro/internal/topology"
)

// metaBackend is where the namenode's commands run. Both backends apply
// them to a nameMachine: localMeta to one in-process, under a mutex (the
// classic single-namenode layout); raftMeta to one on every member of a
// replicated group, so the block map survives any single namenode crash.
type metaBackend interface {
	// propose applies one command and returns its response.
	propose(cmd []byte) ([]byte, error)
	// view runs fn against a current metadata replica. fn must only
	// read, and must not retain st past the call.
	view(fn func(st *nameState)) error
}

// localMeta is the in-process namenode.
type localMeta struct {
	mu sync.Mutex
	m  nameMachine
}

func (l *localMeta) propose(cmd []byte) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Apply(cmd), nil
}

func (l *localMeta) view(fn func(st *nameState)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	fn(l.m.st)
	return nil
}

// raftMeta proposes every command on a replicated group; reads run
// against the current leader's replica.
type raftMeta struct {
	g *ha.Group
}

func (r *raftMeta) propose(cmd []byte) ([]byte, error) { return r.g.Propose(MachineName, cmd) }

func (r *raftMeta) view(fn func(st *nameState)) error {
	return r.g.Query(MachineName, func(sm ha.StateMachine) error {
		fn(sm.(*nameMachine).st)
		return nil
	})
}

// namenode is the data plane's client of either backend: each mutation
// is encoded as one command, proposed, and its response decoded.
type namenode struct {
	metaBackend
}

// call proposes cmd and splits the response into payload and error.
func (n namenode) call(cmd []byte) ([]byte, error) {
	resp, err := n.propose(cmd)
	if err != nil {
		return nil, err
	}
	return decodeResp(resp)
}

func (n namenode) create(path string, repl int) error {
	_, err := n.call(binary.BigEndian.AppendUint32(ha.AppendString([]byte{opCreate}, path), uint32(repl)))
	return err
}

func (n namenode) seal(path string, hint topology.NodeID, length int64) (BlockID, []topology.NodeID, error) {
	cmd := binary.BigEndian.AppendUint64(ha.AppendString([]byte{opSeal}, path), uint64(int64(hint)))
	payload, err := n.call(binary.BigEndian.AppendUint64(cmd, uint64(length)))
	if err != nil {
		return 0, nil, err
	}
	return decodeSealed(payload)
}

func (n namenode) deleteFile(path string) ([]blockRef, error) {
	payload, err := n.call(ha.AppendString([]byte{opDelete}, path))
	if err != nil {
		return nil, err
	}
	return decodeFreed(payload)
}

func (n namenode) setAlive(node topology.NodeID, alive bool) error {
	_, err := n.call(ha.AppendBool(binary.BigEndian.AppendUint64([]byte{opSetAlive}, uint64(int64(node))), alive))
	return err
}

func (n namenode) rereplicate() ([]moveRef, error) { return n.moves([]byte{opRereplicate}) }

func (n namenode) decommission(node topology.NodeID) ([]moveRef, error) {
	return n.moves(binary.BigEndian.AppendUint64([]byte{opDecommission}, uint64(int64(node))))
}

func (n namenode) balance(slack float64) ([]moveRef, error) {
	return n.moves(binary.BigEndian.AppendUint64([]byte{opBalance}, math.Float64bits(slack)))
}

func (n namenode) moves(cmd []byte) ([]moveRef, error) {
	payload, err := n.call(cmd)
	if err != nil {
		return nil, err
	}
	return decodeMoves(payload)
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
// commands are opcode-tagged encodings of the namenode mutations and
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

// sentinels maps each sentinel error code to its error.
var sentinels = [...]error{errExists: ErrExists, errNotFound: ErrNotFound, errNoLiveNode: ErrNoLiveNode, errNodeUnknown: ErrNodeUnknown}

func encodeErr(err error) []byte {
	if err == nil {
		return []byte{errOK}
	}
	code := byte(errOther)
	for c, s := range sentinels {
		if s != nil && errors.Is(err, s) {
			code = byte(c)
			break
		}
	}
	return append([]byte{code}, err.Error()...)
}

// decodeResp splits a response into its payload and error. The detail
// string travels with the code, so the caller sees the machine's message:
// the sentinel itself when the detail is its text, else the sentinel
// wrapping the rest of the detail.
func decodeResp(resp []byte) ([]byte, error) {
	if len(resp) == 0 {
		return nil, errors.New("dfs: empty namenode response")
	}
	code, rest := resp[0], resp[1:]
	if code == errOK {
		return rest, nil
	}
	detail := string(rest)
	if int(code) >= len(sentinels) || sentinels[code] == nil {
		return nil, errors.New(detail)
	}
	s := sentinels[code]
	if detail == s.Error() {
		return nil, s
	}
	return nil, fmt.Errorf("%w: %s", s, strings.TrimPrefix(detail, s.Error()+": "))
}

func (m *nameMachine) Apply(cmd []byte) []byte {
	d := ha.NewDecoder(cmd)
	switch op := d.U8(); op {
	case opCreate:
		path, repl := d.String(), int(d.U32())
		if d.Err() != nil {
			return encodeErr(d.Err())
		}
		return encodeErr(m.st.create(path, repl))
	case opSeal:
		path, hint, length := d.String(), topology.NodeID(int64(d.U64())), int64(d.U64())
		if d.Err() != nil {
			return encodeErr(d.Err())
		}
		id, replicas, err := m.st.seal(path, hint, length)
		if err != nil {
			return encodeErr(err)
		}
		buf := binary.BigEndian.AppendUint64([]byte{errOK}, uint64(id))
		return appendNodes(buf, replicas)
	case opDelete:
		path := d.String()
		if d.Err() != nil {
			return encodeErr(d.Err())
		}
		freed, err := m.st.deleteFile(path)
		if err != nil {
			return encodeErr(err)
		}
		buf := binary.BigEndian.AppendUint32([]byte{errOK}, uint32(len(freed)))
		for _, ref := range freed {
			buf = appendNodes(binary.BigEndian.AppendUint64(buf, uint64(ref.id)), ref.replicas)
		}
		return buf
	case opSetAlive:
		n, alive := topology.NodeID(int64(d.U64())), d.Bool()
		if d.Err() != nil {
			return encodeErr(d.Err())
		}
		return encodeErr(m.st.setAlive(n, alive))
	case opRereplicate:
		return encodeMoves(m.st.rereplicate())
	case opDecommission:
		n := topology.NodeID(int64(d.U64()))
		if d.Err() != nil {
			return encodeErr(d.Err())
		}
		plan, err := m.st.decommission(n)
		if err != nil {
			return encodeErr(err)
		}
		return encodeMoves(plan)
	case opBalance:
		slack := math.Float64frombits(d.U64())
		if d.Err() != nil {
			return encodeErr(d.Err())
		}
		return encodeMoves(m.st.balance(slack))
	default:
		return encodeErr(fmt.Errorf("dfs: unknown namenode opcode %d", op))
	}
}

func (m *nameMachine) Snapshot() []byte                 { return m.AppendSnapshot(nil) }
func (m *nameMachine) AppendSnapshot(dst []byte) []byte { return m.st.appendSnapshot(dst) }
func (m *nameMachine) Restore(snap []byte)              { m.st.restore(snap) }

// appendNodes appends a counted list of node ids.
func appendNodes(buf []byte, nodes []topology.NodeID) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(nodes)))
	for _, n := range nodes {
		buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	}
	return buf
}

// decodeNodes reads a counted list of node ids.
func decodeNodes(d *ha.Decoder) []topology.NodeID {
	n := d.Count(8)
	nodes := make([]topology.NodeID, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		nodes = append(nodes, topology.NodeID(int64(d.U64())))
	}
	return nodes
}

func encodeMoves(plan []moveRef) []byte {
	buf := binary.BigEndian.AppendUint32([]byte{errOK}, uint32(len(plan)))
	for _, mv := range plan {
		buf = binary.BigEndian.AppendUint64(buf, uint64(mv.id))
		buf = binary.BigEndian.AppendUint64(buf, uint64(mv.src))
		buf = binary.BigEndian.AppendUint64(buf, uint64(mv.dst))
		buf = binary.BigEndian.AppendUint64(buf, uint64(mv.length))
	}
	return buf
}

func decodeMoves(payload []byte) ([]moveRef, error) {
	d := ha.NewDecoder(payload)
	n := d.Count(32)
	plan := make([]moveRef, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		plan = append(plan, moveRef{
			id:     BlockID(d.U64()),
			src:    topology.NodeID(int64(d.U64())),
			dst:    topology.NodeID(int64(d.U64())),
			length: int64(d.U64()),
		})
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return plan, nil
}

func decodeSealed(payload []byte) (BlockID, []topology.NodeID, error) {
	d := ha.NewDecoder(payload)
	id, replicas := BlockID(d.U64()), decodeNodes(d)
	if d.Err() != nil {
		return 0, nil, d.Err()
	}
	return id, replicas, nil
}

func decodeFreed(payload []byte) ([]blockRef, error) {
	d := ha.NewDecoder(payload)
	n := d.Count(12)
	freed := make([]blockRef, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		freed = append(freed, blockRef{id: BlockID(d.U64()), replicas: decodeNodes(d)})
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return freed, nil
}
