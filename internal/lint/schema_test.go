package lint

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSchemaVersionTracksAnalyzers is the guard the SchemaVersion
// contract promises: registering a new analyzer without bumping the
// version's count component fails here, in the same package the
// registration happens.
func TestSchemaVersionTracksAnalyzers(t *testing.T) {
	n := len(Analyzers())
	if !schemaConsistent(SchemaVersion, n) {
		t.Fatalf("SchemaVersion %q does not end in the analyzer count .%d; bump it in the change that touched the registry", SchemaVersion, n)
	}
	// The check must actually discriminate: simulating one more
	// registered analyzer has to fail, or the guard is vacuous.
	if schemaConsistent(SchemaVersion, n+1) {
		t.Fatalf("schemaConsistent(%q, %d) accepted a count the version does not carry", SchemaVersion, n+1)
	}
}

// TestSchemaVersionConsumers pins that the SARIF driver's tool.version,
// the const's one consumer, really derives from it.
func TestSchemaVersionConsumers(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, nil, Analyzers(), "."); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Name    string `json:"name"`
					Version string `json:"version"`
				} `json:"driver"`
			} `json:"tool"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Version != SchemaVersion {
		t.Fatalf("SARIF driver version = %+v, want %q", log.Runs, SchemaVersion)
	}
}
