package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Metric vectors: families of counters/gauges keyed by a small,
// fixed set of label keys (e.g. shuffle_partition_bytes{shuffle,partition}).
// Children are created on first use. Vectors are nil-receiver safe the same
// way the scalar types are: With on a nil vector returns a nil child, whose
// methods are themselves no-ops, so disabled instrumentation stays one
// branch deep.

// labelKey joins label values into a map key. 0x1f (ASCII unit separator)
// cannot appear in reasonable label values; collisions would need a value
// containing it, which Each would still render unambiguously.
const labelSep = "\x1f"

func joinLabels(values []string) string { return strings.Join(values, labelSep) }

type vec[M any] struct {
	name     string
	keys     []string
	mu       sync.RWMutex
	children map[string]*M
	newM     func() *M
}

func (v *vec[M]) with(values []string) *M {
	if v == nil {
		return nil
	}
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("metrics: %s expects %d label values %v, got %d",
			v.name, len(v.keys), v.keys, len(values)))
	}
	k := joinLabels(values)
	v.mu.RLock()
	m, ok := v.children[k]
	v.mu.RUnlock()
	if ok {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m, ok = v.children[k]; ok {
		return m
	}
	m = v.newM()
	v.children[k] = m
	return m
}

// each visits children sorted by label values for deterministic iteration.
func (v *vec[M]) each(fn func(labels []Label, m *M)) {
	if v == nil {
		return
	}
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	children := make(map[string]*M, len(v.children))
	for k, m := range v.children {
		children[k] = m
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		values := strings.Split(k, labelSep)
		labels := make([]Label, len(v.keys))
		for i, key := range v.keys {
			val := ""
			if i < len(values) {
				val = values[i]
			}
			labels[i] = Label{Key: key, Value: val}
		}
		fn(labels, children[k])
	}
}

// CounterVec is a family of counters sharing a name and label keys.
type CounterVec struct {
	name string
	keys []string
	v    vec[Counter]
}

func newCounterVec(name string, keys []string) *CounterVec {
	cv := &CounterVec{name: name, keys: keys}
	cv.v = vec[Counter]{name: name, keys: keys, children: map[string]*Counter{}, newM: func() *Counter { return &Counter{} }}
	return cv
}

// With returns the child counter for the given label values (one per key,
// in declaration order), creating it on first use. Nil-safe: a nil vector
// yields a nil (no-op) counter.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.v.with(values)
}

// Each visits every child with its labels, ordered by label values.
func (v *CounterVec) Each(fn func(labels []Label, c *Counter)) {
	if v == nil {
		return
	}
	v.v.each(fn)
}

// GaugeVec is a family of gauges sharing a name and label keys.
type GaugeVec struct {
	name string
	keys []string
	v    vec[Gauge]
}

func newGaugeVec(name string, keys []string) *GaugeVec {
	gv := &GaugeVec{name: name, keys: keys}
	gv.v = vec[Gauge]{name: name, keys: keys, children: map[string]*Gauge{}, newM: func() *Gauge { return &Gauge{} }}
	return gv
}

// With returns the child gauge for the given label values. Nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.v.with(values)
}

// Each visits every child with its labels, ordered by label values.
func (v *GaugeVec) Each(fn func(labels []Label, g *Gauge)) {
	if v == nil {
		return
	}
	v.v.each(fn)
}

// CounterVec returns the counter vector with the given name, creating it
// with the given label keys if needed. Re-requesting an existing vector
// with different keys panics: that is a programming error, and silently
// returning mismatched children would corrupt exposition.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.counterVecs[name]
	if !ok {
		v = newCounterVec(name, append([]string(nil), keys...))
		r.counterVecs[name] = v
		return v
	}
	mustMatchKeys(name, v.keys, keys)
	return v
}

// GaugeVec returns the gauge vector with the given name, creating it if
// needed.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gaugeVecs[name]
	if !ok {
		v = newGaugeVec(name, append([]string(nil), keys...))
		r.gaugeVecs[name] = v
		return v
	}
	mustMatchKeys(name, v.keys, keys)
	return v
}

func mustMatchKeys(name string, have, want []string) {
	if len(have) != len(want) {
		panic(fmt.Sprintf("metrics: vector %s registered with keys %v, requested with %v", name, have, want))
	}
	for i := range have {
		if have[i] != want[i] {
			panic(fmt.Sprintf("metrics: vector %s registered with keys %v, requested with %v", name, have, want))
		}
	}
}
