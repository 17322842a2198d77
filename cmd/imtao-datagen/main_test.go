package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"imtao/internal/workload"
)

// The datagen CLI is exercised end to end through `go run`-style execution
// of the built binary: build once, then drive it with real flags.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "imtao-datagen")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build failed: %v\n%s", err, out)
	}
	return bin
}

func TestCLIGeneratesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped with -short")
	}
	bin := buildCLI(t)
	out := filepath.Join(t.TempDir(), "scene.json")
	cmd := exec.Command(bin, "-tasks", "10", "-workers", "4", "-centers", "2", "-out", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("run failed: %v\n%s", err, msg)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"tasks"`) || !strings.Contains(s, `"centers"`) {
		t.Fatalf("unexpected output: %.200s", s)
	}
}

func TestCLIPreset(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped with -short")
	}
	bin := buildCLI(t)
	out := filepath.Join(t.TempDir(), "ring.json")
	cmd := exec.Command(bin, "-preset", "ringroad", "-tasks", "8", "-workers", "3",
		"-centers", "2", "-out", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("run failed: %v\n%s", err, msg)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in, err := workload.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Tasks) != 8 || len(in.Workers) != 3 || len(in.Centers) != 2 {
		t.Fatalf("preset scene has %d tasks, %d workers, %d centers; want 8, 3, 2",
			len(in.Tasks), len(in.Workers), len(in.Centers))
	}
}

func TestCLIRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped with -short")
	}
	bin := buildCLI(t)
	for _, args := range [][]string{
		{"-preset", "atlantis"},
		{"-dataset", "nope"},
	} {
		cmd := exec.Command(bin, args...)
		if err := cmd.Run(); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}
