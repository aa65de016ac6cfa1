package train

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// saveTestCheckpoint produces a real checkpoint from a tiny completed run.
func saveTestCheckpoint(t testing.TB) *Checkpoint {
	t.Helper()
	cfg := smallConfig(77)
	cfg.MaxSteps, cfg.EvalEvery = 10, 5
	job := NewJob(cfg, BSPPolicy{})
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ck, err := job.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// SaveCheckpoint must be atomic: the destination either holds the
// complete new checkpoint or whatever was there before — never a partial
// write — and no temp files survive a successful save.
func TestSaveCheckpointAtomic(t *testing.T) {
	ck := saveTestCheckpoint(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	// Seed the destination with garbage: an interrupted save must not
	// have destroyed it, a completed save must have replaced it whole.
	if err := os.WriteFile(path, []byte("previous contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatalf("saved checkpoint does not load back: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %q left behind after a successful save", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("expected only the checkpoint in %s, found %d entries", dir, len(entries))
	}
}

// A truncated checkpoint file — the artifact a non-atomic writer leaves
// after a crash mid-save — must be refused by LoadCheckpoint at every
// truncation point: inside the magic, inside the gob stream, or empty.
func TestLoadCheckpointRefusesTruncated(t *testing.T) {
	ck := saveTestCheckpoint(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, len(checkpointMagic) - 1, len(checkpointMagic) + 10, len(full) / 2, len(full) - 1} {
		trunc := filepath.Join(dir, "trunc.ckpt")
		if err := os.WriteFile(trunc, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(trunc); err == nil {
			t.Fatalf("LoadCheckpoint accepted a checkpoint truncated to %d of %d bytes", n, len(full))
		}
	}
	// The untouched original still loads.
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
}
