package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGateFailsOnMissingBaselineEntry: a baseline benchmark the tracked set
// no longer produces fails the gate by name; a custom -bench subset only
// reports it. No benchmark runs: nothing regressed, so nothing re-measures.
func TestGateFailsOnMissingBaselineEntry(t *testing.T) {
	base := report{Benchmarks: []result{
		{Name: "BenchmarkKept", Package: ".", NsPerOp: 100, AllocsPerOp: 10},
		{Name: "BenchmarkGone/Sub", Package: ".", NsPerOp: 100, AllocsPerOp: 10},
	}}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := []result{
		{Name: "BenchmarkKept", Package: ".", NsPerOp: 110, AllocsPerOp: 10},
		{Name: "BenchmarkNew", Package: ".", NsPerOp: 50},
	}

	err = gateAgainstBaseline(path, nil, fresh, true, "1x", 0, 2, 1.5)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkGone/Sub") {
		t.Fatalf("gate with a missing baseline entry: %v, want an error naming it", err)
	}
	if strings.Contains(err.Error(), "BenchmarkKept") || strings.Contains(err.Error(), "BenchmarkNew") {
		t.Fatalf("gate named a benchmark that ran: %v", err)
	}
	if err := gateAgainstBaseline(path, nil, fresh, false, "1x", 0, 2, 1.5); err != nil {
		t.Fatalf("custom subset: %v, want only a report", err)
	}
}
