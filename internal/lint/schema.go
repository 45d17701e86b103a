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
// an analyzer starts or stops matching (9: gosim and engineown are
// removed, their bug class confined to internal/workpool by a source
// scan), and the count must equal
// len(Analyzers()). Registering a new analyzer without bumping the count
// here fails TestSchemaVersionTracksAnalyzers — a schema bump must be a
// conscious act in the same change that alters what the tool emits.
const SchemaVersion = "9.6"

// schemaConsistent reports whether v's analyzer-count component matches
// the live registry; split out so the guard test exercises the exact
// production comparison.
func schemaConsistent(v string, analyzerCount int) bool {
	return strings.HasSuffix(v, fmt.Sprintf(".%d", analyzerCount))
}
