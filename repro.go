// Package repro is the public facade of the reproduction of
// Fernández-Moctezuma, Tufte & Li, "Inter-Operator Feedback in Data Stream
// Management Systems via Punctuation" (CIDR 2009).
//
// The library implements a NiagaraST-style push-based stream processor —
// operators as goroutines connected by paged queues with an out-of-band
// upstream control channel — and, on top of it, the paper's contribution:
// feedback punctuation with assumed (¬), desired (?), and demanded (!)
// intents, the correctness framework of §4 (correct exploitation, safe
// propagation), and the operator characterizations of Tables 1 and 2.
//
// Quick start:
//
//	src := repro.NewSliceSource("src", schema, tuples...)
//	src.FeedbackAware = true
//	g := repro.NewGraph()
//	s := g.AddSource(src)
//	f := g.Add(&repro.Select{Schema: schema, Mode: repro.FeedbackExploit, Propagate: true}, repro.From(s))
//	g.Add(sink, repro.From(f))
//	err := g.Run()
//
// See examples/ for complete programs and internal/experiments for the
// harnesses that regenerate the paper's figures and tables.
package repro

import (
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/remote"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// ---------------------------------------------------------------------------
// Tuple model.
// ---------------------------------------------------------------------------

type (
	// Schema describes a stream's attributes.
	Schema = stream.Schema
	// Field is one attribute of a Schema.
	Field = stream.Field
	// Tuple is one stream element.
	Tuple = stream.Tuple
	// Value is a typed attribute value.
	Value = stream.Value
	// Kind enumerates value types.
	Kind = stream.Kind
)

// Value kinds.
const (
	KindNull   = stream.KindNull
	KindInt    = stream.KindInt
	KindFloat  = stream.KindFloat
	KindString = stream.KindString
	KindTime   = stream.KindTime
	KindBool   = stream.KindBool
)

// Value and schema constructors (see package stream).
var (
	NewSchema  = stream.NewSchema
	MustSchema = stream.MustSchema
	F          = stream.F
	NewTuple   = stream.NewTuple
	Int        = stream.Int
	Float      = stream.Float
	Str        = stream.String_
	Bool       = stream.Bool
	Time       = stream.Time
	TimeMicros = stream.TimeMicros
)

// Null is the missing value.
var Null = stream.Null

// ---------------------------------------------------------------------------
// Punctuation.
// ---------------------------------------------------------------------------

type (
	// Pattern is a punctuation pattern: one predicate per attribute.
	Pattern = punct.Pattern
	// Pred is a single-attribute predicate.
	Pred = punct.Pred
	// Embedded is punctuation flowing with the stream.
	Embedded = punct.Embedded
)

// Pattern and predicate constructors (see package punct).
var (
	NewPattern   = punct.NewPattern
	AllWild      = punct.AllWild
	OnAttr       = punct.OnAttr
	ParsePattern = punct.ParsePattern
	NewEmbedded  = punct.NewEmbedded
	TimePunct    = punct.TimePunct
	Eq           = punct.Eq
	Ne           = punct.Ne
	Lt           = punct.Lt
	Le           = punct.Le
	Gt           = punct.Gt
	Ge           = punct.Ge
	RangePred    = punct.Range
	OneOf        = punct.OneOf
)

// Wild is the wildcard predicate "*".
var Wild = punct.Wild

// ---------------------------------------------------------------------------
// Feedback punctuation (the paper's contribution).
// ---------------------------------------------------------------------------

type (
	// Feedback is a feedback punctuation: intent + pattern, flowing
	// against the stream on the control channel.
	Feedback = core.Feedback
	// Intent is the feedback's purpose: Assumed (¬), Desired (?), or
	// Demanded (!).
	Intent = core.Intent
	// GuardTable holds active suppression guards with §4.4 expiration.
	GuardTable = core.GuardTable
	// AttrMap maps operator output attributes to input attributes for
	// propagation analysis.
	AttrMap = core.AttrMap
	// ExploitReport is the outcome of a Definition 1 check.
	ExploitReport = core.ExploitReport
)

// Feedback intents.
const (
	Assumed  = core.Assumed
	Desired  = core.Desired
	Demanded = core.Demanded
)

// Feedback constructors and the correctness tools: §4's Definitions 1-2
// plus the desired/demanded contracts (the paper's §8 future work).
var (
	NewAssumed        = core.NewAssumed
	NewDesired        = core.NewDesired
	NewDemanded       = core.NewDemanded
	ParseFeedback     = core.ParseFeedback
	NewGuardTable     = core.NewGuardTable
	CheckExploitation = core.CheckExploitation
	CheckDesired      = core.CheckDesired
	CheckDemanded     = core.CheckDemanded
	SafePropagation   = core.SafePropagation
	IdentityMap       = core.Identity
)

// ---------------------------------------------------------------------------
// Execution runtime.
// ---------------------------------------------------------------------------

type (
	// Graph is a query plan; build with AddSource/Add, run with Run.
	Graph = exec.Graph
	// Operator is the stream operator interface.
	Operator = exec.Operator
	// Source is a self-driving input operator.
	Source = exec.Source
	// Context is the runtime surface passed to operator callbacks.
	Context = exec.Context
	// NodeID identifies a plan node.
	NodeID = exec.NodeID
	// Port names a node's output port for wiring.
	Port = exec.Port
	// Harness drives one operator synchronously for tests.
	Harness = exec.Harness
	// SliceSource replays a fixed item sequence.
	SliceSource = exec.SliceSource
	// Collector is a recording sink.
	Collector = exec.Collector
	// QueueOptions configures inter-operator connections.
	QueueOptions = queue.Options
)

// Runtime constructors (see package exec).
var (
	NewGraph         = exec.NewGraph
	From             = exec.From
	FromPort         = exec.FromPort
	NewHarness       = exec.NewHarness
	NewSourceHarness = exec.NewSourceHarness
	NewSliceSource   = exec.NewSliceSource
	NewCollector     = exec.NewCollector
)

// ---------------------------------------------------------------------------
// Operators.
// ---------------------------------------------------------------------------

type (
	// Select filters tuples; stateless feedback exploitation (§4.3).
	Select = op.Select
	// Project narrows attributes with punctuation/feedback mapping.
	Project = op.Project
	// Duplicate fans out; exploits only unanimous feedback.
	Duplicate = op.Duplicate
	// Union merges same-schema inputs, forwarding a punctuation once every
	// input has asserted it (the exchange's Merge is the same operator).
	Union = op.Merge
	// Pace is the bounded-divergence union and assumed-feedback producer
	// (Example 3).
	Pace = op.Pace
	// Impute fills missing values via archival lookups; the canonical
	// assumed-feedback exploiter.
	Impute = op.Impute
	// Aggregate is the windowed grouped aggregate with Table 1 feedback
	// handling.
	Aggregate = op.Aggregate
	// Join is the symmetric hash join with Table 2 feedback handling,
	// plus LeftOuter, Thrifty and Impatient variants.
	Join = op.Join
	// Prioritize reorders in favour of desired subsets.
	Prioritize = op.Prioritize
	// FeedbackMode selects how far an operator exploits feedback.
	FeedbackMode = op.FeedbackMode
	// AggKind selects the aggregate function.
	AggKind = core.AggKind
	// WindowSpec describes window extents (WID).
	WindowSpec = window.Spec
)

// Feedback modes (the Figure 7 scheme ladder).
const (
	FeedbackIgnore      = op.FeedbackIgnore
	FeedbackGuardOutput = op.FeedbackGuardOutput
	FeedbackExploit     = op.FeedbackExploit
)

// Aggregate kinds.
const (
	AggCount = core.AggCount
	AggSum   = core.AggSum
	AggAvg   = core.AggAvg
	AggMax   = core.AggMax
	AggMin   = core.AggMin
)

// Window constructors (see package window).
var (
	Tumbling = window.Tumbling
	Sliding  = window.Sliding
)

// ---------------------------------------------------------------------------
// Distribution.
// ---------------------------------------------------------------------------

type (
	// RemoteSink frames a local stream onto a net.Conn; feedback frames
	// from the remote side are relayed into the local plan.
	RemoteSink = remote.Sink
	// RemoteSource replays a remote stream from a net.Conn and frames
	// feedback back across it.
	RemoteSource = remote.Source
)

// Remote edge constructors (see package remote).
var (
	NewRemoteSink   = remote.NewSink
	NewRemoteSource = remote.NewSource
	ListenRemote    = remote.Listen
)

// Checkpoint coordination (DESIGN.md §8), the one way a plan is cut and
// restored: a plan cuts one epoch across every subplan — barriers cross
// remote edges in-band, each subplan persists its own chain, and the
// coordinator commits a manifest only after every part's ack. A
// single-process plan is a coordinator with no followers.
type (
	// DistCoordinator drives checkpoints and restores for the subplan that
	// owns the sources.
	DistCoordinator = exec.DistCoordinator
	// DistFollower is the checkpoint glue for a subplan fed by remote
	// edges: forced-epoch cuts on wire barriers, acks after local persist.
	DistFollower = exec.DistFollower
	// DistManifest is one committed distributed cut.
	DistManifest = snapshot.DistManifest
	// DistLog stores committed manifests in a snapshot backend.
	DistLog = snapshot.DistLog
)

// Distributed coordination constructors (see exec and snapshot).
var (
	NewDistCoordinator = exec.NewDistCoordinator
	NewDistFollower    = exec.NewDistFollower
	NewDistLog         = snapshot.NewDistLog
)
