package flux

// Exports for the external test package flux_test, whose hub-level
// streaming differential drives internal/stream — a package that
// imports flux and so cannot be imported by flux's in-package tests.
var (
	// FuzzSchemas is fuzzSchemas: the DTDs of the differential tests.
	FuzzSchemas = fuzzSchemas
	// GenQueryBatch is genQueryBatch: a random query batch per schema.
	GenQueryBatch = genQueryBatch
)
