package lint

import (
	"fmt"
	"strings"
)

// SchemaVersion stamps what the tool emits: the SARIF driver reports it
// as tool.version, so a code-scanning backend can tell which ruleset
// produced a log.
//
// The format is <generation>.<analyzer-count>: the generation bumps when
// an analyzer starts or stops matching (10: taint is removed, its sources
// banned at the call site by walltime, detrand and maporder), and the
// count must equal
// len(Analyzers()). Registering a new analyzer without bumping the count
// here fails TestSchemaVersionTracksAnalyzers — a schema bump must be a
// conscious act in the same change that alters what the tool emits.
const SchemaVersion = "10.5"

// schemaConsistent reports whether v's analyzer-count component matches
// the live registry; split out so the guard test exercises the exact
// production comparison.
func schemaConsistent(v string, analyzerCount int) bool {
	return strings.HasSuffix(v, fmt.Sprintf(".%d", analyzerCount))
}
