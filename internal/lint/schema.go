package lint

import (
	"fmt"
	"strings"
)

// SchemaVersion is the single version stamp for everything whose meaning
// depends on the analyzer set and result encoding: the content-addressed
// cache key folds it in (so results computed under an older analyzer set
// can never be replayed) and the SARIF driver reports it as tool.version
// (so a code-scanning backend can tell which ruleset produced a log).
//
// The format is <payload-generation>.<analyzer-count>: the generation
// bumps when the cached pkgResult layout or key derivation changes or an
// analyzer starts matching more (6: engineown loses its ShardGroup
// exemption, so a ShardGroup crossing a goroutine or channel now fires),
// the count must equal len(Analyzers()). Registering a new analyzer without
// bumping the count here fails TestSchemaVersionTracksAnalyzers — that
// is the point: a schema bump must be a conscious act in the same change
// that alters what the tool emits.
const SchemaVersion = "6.15"

// schemaConsistent reports whether v's analyzer-count component matches
// the live registry; split out so the guard test exercises the exact
// production comparison.
func schemaConsistent(v string, analyzerCount int) bool {
	return strings.HasSuffix(v, fmt.Sprintf(".%d", analyzerCount))
}
