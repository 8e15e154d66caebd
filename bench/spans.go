package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// outDir holds what runs leave behind: result files and traces. It is
// relative to the working directory, which run.sh makes the repo root.
var outDir = filepath.Join("bench", "out")

// span is one recorded interval. Spans wrap only calls the harness makes
// into the program's public functions; spans inside the program are not
// this recorder's business.
type span struct {
	Name   string
	Parent int // index into spans, -1 for a root
	Start  time.Duration
	End    time.Duration
	Args   map[string]any
}

// spanRecorder keeps spans in memory and writes them out at exit. There is
// one driver goroutine, so the open-span stack gives each span its parent.
// A nil recorder records nothing.
type spanRecorder struct {
	trace string // per-workload trace id
	t0    time.Time
	spans []span
	open  []int
}

func newSpanRecorder(trace string) *spanRecorder {
	return &spanRecorder{trace: trace, t0: time.Now()}
}

func (r *spanRecorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: time.Since(r.t0)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id; kv are alternating argument names and values.
func (r *spanRecorder) end(id int, kv ...any) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.End = time.Since(r.t0)
	for i := 0; i+1 < len(kv); i += 2 {
		if s.Args == nil {
			s.Args = map[string]any{}
		}
		s.Args[kv[i].(string)] = kv[i+1]
	}
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = r.open[:i]
			break
		}
	}
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto) to outDir/<workload>.trace.json.
func (r *spanRecorder) writeChrome(workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	// A span's self time is its duration minus the part its children cover.
	children := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	events := make([]event, 0, len(r.spans))
	for id, s := range r.spans {
		args := map[string]any{"trace": r.trace, "id": id, "parent": s.Parent,
			"self_us": float64(s.End-s.Start-children[id]) / 1e3}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Cat: "bench", Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		})
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, workload+".trace.json"), data, 0o644)
}
