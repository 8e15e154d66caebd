// Timeline reconstruction: fold the flat span list back into one causal
// tree per trace. Spans recorded on different tracks (driver, executor
// nodes, the stream coordinator, the ha group) carry parent ids that
// cross those track boundaries — a shuffle fetch on node-03 parents to
// the task that issued it, which parents to its stage on the driver —
// so the tree is the cross-node "what caused what" view of a job.
// Instant events (chaos injections) have no parent; they are attached
// to the timeline as annotations so a fault shows up next to the work
// it disrupted.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Node is one span plus the spans it caused, children ordered like
// Spans() (start, then track, then name, then id).
type Node struct {
	Span     Span
	Children []*Node
}

// Timeline is the reconstructed causal view of a single trace.
type Timeline struct {
	Trace uint64
	// Roots are spans with no recorded parent (normally one: the job
	// span). Orphans — spans whose parent id was never recorded, e.g.
	// because the parent belongs to a crashed component — are promoted
	// to roots rather than dropped.
	Roots []*Node
	// Annotations are the instant events that fired while the trace was
	// active (Start within [first span start, last span end]), in time
	// order. They carry no causal parent by design.
	Annotations []Span

	byID map[uint64]*Node
}

// TraceIDs lists the distinct trace ids present in spans, ascending.
func TraceIDs(spans []Span) []uint64 {
	set := map[uint64]bool{}
	for _, s := range spans {
		if s.Trace != 0 {
			set[s.Trace] = true
		}
	}
	ids := make([]uint64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// BuildTimeline reconstructs the causal tree for one trace id from a
// span list (normally Recorder.Spans()). Spans of other traces are
// ignored; unlinked non-instant spans (Trace==0) are ignored too.
func BuildTimeline(spans []Span, traceID uint64) *Timeline {
	tl := &Timeline{Trace: traceID, byID: map[uint64]*Node{}}
	var members []Span
	var lo, hi time.Duration
	for _, s := range spans {
		if s.Instant || s.Trace != traceID {
			continue
		}
		members = append(members, s)
		end := s.Start + s.Duration
		if len(members) == 1 || s.Start < lo {
			lo = s.Start
		}
		if end > hi {
			hi = end
		}
	}
	// Keep Spans() order so sibling order is deterministic.
	sortSpans(members)
	for i := range members {
		tl.byID[members[i].ID] = &Node{Span: members[i]}
	}
	for i := range members {
		n := tl.byID[members[i].ID]
		if p, ok := tl.byID[n.Span.Parent]; ok && n.Span.Parent != 0 {
			p.Children = append(p.Children, n)
		} else {
			tl.Roots = append(tl.Roots, n)
		}
	}
	if len(members) > 0 {
		for _, s := range spans {
			if s.Instant && s.Start >= lo && s.Start <= hi {
				tl.Annotations = append(tl.Annotations, s)
			}
		}
		sortSpans(tl.Annotations)
	}
	return tl
}

func sortSpans(ss []Span) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].Start != ss[j].Start {
			return ss[i].Start < ss[j].Start
		}
		if ss[i].Track != ss[j].Track {
			return ss[i].Track < ss[j].Track
		}
		if ss[i].Name != ss[j].Name {
			return ss[i].Name < ss[j].Name
		}
		return ss[i].ID < ss[j].ID
	})
}

// Lookup returns the node for a span id, or nil.
func (tl *Timeline) Lookup(id uint64) *Node {
	return tl.byID[id]
}

// Len returns the number of spans in the timeline (annotations excluded).
func (tl *Timeline) Len() int { return len(tl.byID) }

// PathToRoot walks parent links from span id up to its root, returning
// the chain starting at the span itself. Nil if the id is not in the
// timeline.
func (tl *Timeline) PathToRoot(id uint64) []*Node {
	n := tl.byID[id]
	if n == nil {
		return nil
	}
	var path []*Node
	for n != nil {
		path = append(path, n)
		if n.Span.Parent == 0 {
			break
		}
		n = tl.byID[n.Span.Parent]
	}
	return path
}

// walkNode visits n's subtree depth-first in deterministic order.
func walkNode(n *Node, depth int, fn func(n *Node, depth int)) {
	fn(n, depth)
	for _, c := range n.Children {
		walkNode(c, depth+1, fn)
	}
}

// String renders the timeline as an indented text tree with annotations
// appended — the human-readable form of the merged cross-node view.
func (tl *Timeline) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d (%d spans)\n", tl.Trace, len(tl.byID))
	for _, r := range tl.Roots {
		walkNode(r, 0, func(n *Node, depth int) {
			fmt.Fprintf(&b, "%s%s [%s] on %s +%v dur=%v\n",
				strings.Repeat("  ", depth+1),
				n.Span.Name, n.Span.Category, n.Span.Track,
				n.Span.Start.Round(time.Microsecond),
				n.Span.Duration.Round(time.Microsecond))
		})
	}
	for _, a := range tl.Annotations {
		fmt.Fprintf(&b, "  ! %s [%s] on %s +%v\n",
			a.Name, a.Category, a.Track, a.Start.Round(time.Microsecond))
	}
	return b.String()
}
