package flux

import "flux/internal/engine"

// Exports for the external test package flux_test, whose hub-level
// streaming differential drives internal/stream — a package that
// imports flux and so cannot be imported by flux's in-package tests —
// and whose workload invariants run plans unrouted (engine.Run).
var (
	// FuzzSchemas is fuzzSchemas: the DTDs of the differential tests.
	FuzzSchemas = fuzzSchemas
	// GenQueryBatch is genQueryBatch: a random query batch per schema.
	GenQueryBatch = genQueryBatch
	// QueryPlan returns a prepared query's compiled plan.
	QueryPlan = func(q *Query) *engine.Plan { return q.plan }
)
