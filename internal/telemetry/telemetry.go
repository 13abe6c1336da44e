// Package telemetry is the engine-wide observability substrate: a
// zero-alloc-steady-state metrics registry every runtime layer registers
// into, a ring-buffer timeline of checkpoint-epoch lifecycle events, and an
// opt-in HTTP introspection server exposing both (plus pprof) without any
// external dependency.
//
// The package is a leaf: it imports only the standard library, so exec,
// op, fuse, remote, punct, and plan can all depend on it without cycles.
// Every event is counted once, where it flows (DESIGN.md §11): an edge
// counts its tuples, punctuations and control messages (pace_edge_*), an
// operator exports its own counters (pace_op_*, pace_remote_*) through
// VarExporter, and process-wide vars register as globals; barriers are the
// capture rows of the epoch timeline. The runner's page loop adds nothing.
// Everything the scraper reads concurrently with a running plan is an
// atomic or copied under a registry lock; Var closures must only read
// atomics.
package telemetry

import "sync"

// Telemetry bundles the two facilities a running plan exports: the metrics
// registry and the epoch timeline. A nil *Telemetry is a valid "disabled"
// value everywhere: the runtime guards it. New sets both facilities.
type Telemetry struct {
	Registry *Registry
	Timeline *Timeline

	statusMu sync.Mutex
	status   func() any
}

// New creates an enabled telemetry bundle.
func New() *Telemetry {
	return &Telemetry{Registry: NewRegistry(), Timeline: NewTimeline()}
}

// SetStatus installs the closure /statusz serves: plan topology, Explain
// output, and live edge stats. plan.Builder.EnableTelemetry wires it; any
// JSON-marshalable value works.
func (t *Telemetry) SetStatus(fn func() any) {
	if t == nil {
		return
	}
	t.statusMu.Lock()
	t.status = fn
	t.statusMu.Unlock()
}

// Status evaluates the installed status closure (nil if none).
func (t *Telemetry) Status() any {
	if t == nil {
		return nil
	}
	t.statusMu.Lock()
	fn := t.status
	t.statusMu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}
