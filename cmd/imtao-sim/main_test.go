package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "imtao-sim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build failed: %v\n%s", err, out)
	}
	return bin
}

func TestSimEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped with -short")
	}
	bin := buildSim(t)
	solPath := filepath.Join(t.TempDir(), "sol.json")
	cmd := exec.Command(bin, "-tasks", "50", "-workers", "15", "-centers", "4",
		"-trace", "-save", solPath)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"per-center load after Voronoi partition",
		"phase 1 (center-independent Seq)",
		"phase 2 (BDC)",
		"final: assigned",
		"workforce utilization",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if _, err := os.Stat(solPath); err != nil {
		t.Fatalf("solution not saved: %v", err)
	}
}

func TestSimLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped with -short")
	}
	// Generate a dataset with datagen-compatible JSON via imtao-sim's own
	// sibling: easiest is generating with the library through a save file
	// from imtao-datagen — but to keep this test self-contained we just
	// build the datagen binary too.
	datagen := filepath.Join(t.TempDir(), "imtao-datagen")
	if out, err := exec.Command("go", "build", "-o", datagen, "../imtao-datagen").CombinedOutput(); err != nil {
		t.Fatalf("datagen build failed: %v\n%s", err, out)
	}
	scene := filepath.Join(t.TempDir(), "scene.json")
	if out, err := exec.Command(datagen, "-tasks", "30", "-workers", "10", "-centers", "3",
		"-out", scene).CombinedOutput(); err != nil {
		t.Fatalf("datagen run failed: %v\n%s", err, out)
	}
	bin := buildSim(t)
	out, err := exec.Command(bin, "-load", scene, "-method", "Seq-DC").CombinedOutput()
	if err != nil {
		t.Fatalf("sim -load failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "phase 2 (DC)") {
		t.Errorf("method not applied:\n%s", out)
	}
}

// TestSimLoadRejectsInvalidBeforeOutput loads a scene whose speed is zero:
// the run must fail on validation before it prints anything, so stdout
// carries neither the instance line nor the per-center partition table.
func TestSimLoadRejectsInvalidBeforeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped with -short")
	}
	scene := filepath.Join(t.TempDir(), "scene.json")
	doc := `{"speed":0,"bounds":[0,0,10,10],"centers":[[5,5]],` +
		`"tasks":[{"x":1,"y":1,"expiry":1,"reward":1}],` +
		`"workers":[{"x":2,"y":2,"maxT":2}]}`
	if err := os.WriteFile(scene, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := buildSim(t)
	cmd := exec.Command(bin, "-load", scene)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("invalid scene accepted:\n%s", stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty before the validation failure:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "speed must be positive") {
		t.Errorf("stderr lacks the validation error: %q", stderr.String())
	}
}

// TestSimTraceOut runs the binary with a non-.jsonl -trace-out and checks
// the emitted file is a valid Chrome trace whose span tree (carried in the
// events' span_id/parent_id args) contains the full pipeline hierarchy:
// run → phase1 → phase1_center and run → phase2 → game_iter → trial.
func TestSimTraceOut(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped with -short")
	}
	bin := buildSim(t)
	tracePath := filepath.Join(t.TempDir(), "run.trace.json")
	flightPath := filepath.Join(t.TempDir(), "flight.jsonl")
	cmd := exec.Command(bin, "-tasks", "400", "-workers", "100", "-centers", "20",
		"-trace-out", tracePath, "-flight", "256", "-flight-dump", flightPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("run failed: %v\n%s", err, out)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid Chrome trace JSON: %v", err)
	}

	// Rebuild the span tree from the args and collect each span's ancestry.
	parent := make(map[float64]float64)
	name := make(map[float64]string)
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		id, ok := e.Args["span_id"].(float64)
		if !ok {
			t.Fatalf("X event %q lacks span_id", e.Name)
		}
		name[id] = e.Name
		if p, ok := e.Args["parent_id"].(float64); ok {
			parent[id] = p
		}
	}
	chains := make(map[string]bool)
	for id := range name {
		var path []string
		for cur := id; ; {
			path = append([]string{name[cur]}, path...)
			p, ok := parent[cur]
			if !ok || p == 0 {
				break
			}
			cur = p
		}
		chains[strings.Join(path, "→")] = true
	}
	for _, want := range []string{
		"run→phase1→phase1_center",
		"run→phase2→game_iter→trial",
	} {
		if !chains[want] {
			t.Errorf("span tree lacks chain %s; have:", want)
			for c := range chains {
				t.Logf("  %s", c)
			}
		}
	}

	// The -flight-dump file must hold valid JSONL telemetry.
	flight, err := os.ReadFile(flightPath)
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(flight)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("flight dump is empty")
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("flight dump line %q: %v", line, err)
		}
	}
}

func TestSimRejectsBadMethod(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped with -short")
	}
	bin := buildSim(t)
	if err := exec.Command(bin, "-method", "Magic-Plan").Run(); err == nil {
		t.Error("bad method must fail")
	}
}
