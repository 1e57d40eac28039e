package mapping

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBusResumeAndRevoke(t *testing.T) {
	b := NewBus()
	b.Publish(map[string][]string{"a": {"ion-0"}})
	if v := b.Version(); v != 1 {
		t.Fatalf("version after first publish = %d, want 1", v)
	}

	// Resume raises the floor; a lower resume is a no-op.
	b.Resume(9)
	b.Resume(4)
	if v := b.Version(); v != 9 {
		t.Fatalf("version after Resume(9) = %d, want 9", v)
	}

	b.Revoke(10)
	m := b.Publish(map[string][]string{"a": {"ion-1"}})
	if m.Version != 10 || m.Fence != 10 {
		t.Fatalf("post-revoke publish = v%d fence %d, want v10 fence 10", m.Version, m.Fence)
	}

	// The fence is sticky across ordinary publishes and monotonic.
	b.Revoke(5)
	m = b.Publish(map[string][]string{"a": {"ion-2"}})
	if m.Version != 11 || m.Fence != 10 {
		t.Fatalf("later publish = v%d fence %d, want v11 fence 10", m.Version, m.Fence)
	}

	// Fence survives Clone and the file round trip.
	path := filepath.Join(t.TempDir(), "m.json")
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, path)
	if got.Fence != 10 || got.Version != 11 {
		t.Fatalf("file round trip lost epoch state: v%d fence %d", got.Version, got.Fence)
	}
}

// TestMapJSONOmitsZeroFence pins the opt-in discipline at the file layer:
// a map that never saw a recovery serialises byte-identically to the
// pre-epoch format (no "fence" key at all).
func TestMapJSONOmitsZeroFence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := WriteFile(path, Map{Version: 2, IONs: map[string][]string{"a": {"x"}}}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "fence") {
		t.Fatalf("zero fence serialised: %s", raw)
	}
}
