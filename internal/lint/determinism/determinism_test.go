package determinism

import (
	"path/filepath"
	"strings"
	"testing"
)

// The fixture exercises every rule: exactly the two unexcused map
// ranges are findings, in position order.
func TestFixtureFindings(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "fixmod"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Check(root, "fixmod", []string{"."})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(findings) != 2 {
		t.Fatalf("want 2 findings (Sum, counts.Render), got %d:\n%v", len(findings), findings)
	}
	for _, f := range findings {
		if !strings.Contains(f.Msg, "range over a map") {
			t.Errorf("finding message drifted: %s", f.Msg)
		}
		if !strings.HasSuffix(f.Pos.Filename, "fix.go") {
			t.Errorf("finding outside fixture: %s", f.Pos)
		}
	}
	if findings[0].Pos.Line >= findings[1].Pos.Line {
		t.Errorf("findings not in position order: %v", findings)
	}
}

// The deterministic packages must stay lint-clean: every map iteration
// there is sorted, collected-then-sorted, or deliberately annotated.
// This is the in-tree mirror of the CI determinismlint step.
func TestRepoDeterministicPackagesClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Check(root, "pathsched", Packages)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(findings) != 0 {
		t.Fatalf("deterministic packages have unordered map iteration:\n%v", findings)
	}
}
