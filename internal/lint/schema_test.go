package lint_test

import (
	"strings"
	"testing"
)

// schemaAnalyzers are the v4 serialization-contract analyzers this file
// gates on: wire/snapshot field coverage, checkpoint capture/restore
// coverage, and the schema.lock fingerprint pin.
var schemaAnalyzers = map[string]bool{
	"wirecover": true, "statecover": true, "schemalock": true,
}

// TestSchemaAnalyzersCleanOnRepo asserts the three schema analyzers
// report zero findings across the module: every wire field is encoded
// and decoded, every checkpoint field is captured and restored, and the
// committed schema.lock matches the code.
func TestSchemaAnalyzersCleanOnRepo(t *testing.T) {
	if report := lintRepo(t).report(schemaAnalyzers); report != "" {
		t.Errorf("schema analyzers are not clean on the repository:\n%s", report)
	}
}

// TestWirecoverCatchesDroppedEncode deletes the FaultSpec.LinkRate
// encode line from the real wire package and asserts wirecover reports
// the field as never read on the marshal side.
func TestWirecoverCatchesDroppedEncode(t *testing.T) {
	pkg := loadMutated(t, "bfvlsi/internal/wire", "../wire", "fault.go",
		"\te.float64(s.LinkRate)\n", "")
	msgs := runMutated(t, pkg, "wirecover")
	for _, m := range msgs {
		if strings.Contains(m, "LinkRate") && strings.Contains(m, "never read") {
			return
		}
	}
	t.Errorf("wirecover did not flag the dropped LinkRate encode; got %q", msgs)
}

// TestSchemalockCatchesFieldAddition adds a FaultSpec field without
// bumping VersionFaultSpec and asserts schemalock demands the bump.
func TestSchemalockCatchesFieldAddition(t *testing.T) {
	pkg := loadMutated(t, "bfvlsi/internal/wire", "../wire", "fault.go",
		"\tLinkRate float64\n", "\tLinkRate float64\n\tAddedRate float64\n")
	msgs := runMutated(t, pkg, "schemalock")
	for _, m := range msgs {
		if strings.Contains(m, "FaultSpec") && strings.Contains(m, "bump the version") {
			return
		}
	}
	t.Errorf("schemalock did not demand a version bump for the added field; got %q", msgs)
}

// TestStatecoverCatchesDroppedRestore deletes the HaveMap restore
// assignment from the real adaptive router and asserts statecover
// reports the field as never read on the restore side.
func TestStatecoverCatchesDroppedRestore(t *testing.T) {
	pkg := loadMutated(t, "bfvlsi/internal/adaptive", "../adaptive", "state.go",
		"\tr.haveMap = st.HaveMap\n", "")
	msgs := runMutated(t, pkg, "statecover")
	for _, m := range msgs {
		if strings.Contains(m, "HaveMap") && strings.Contains(m, "never read in the restore path") {
			return
		}
	}
	t.Errorf("statecover did not flag the dropped HaveMap restore; got %q", msgs)
}
