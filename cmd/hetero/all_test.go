package main

import (
	"os"
	"testing"
)

// TestAllMatchesCommittedRecord pins all_artifacts.txt, the committed
// record of the full reproduction, to the output it documents.
func TestAllMatchesCommittedRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact regeneration is slow")
	}
	want, err := os.ReadFile("../../all_artifacts.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := runCLI(t, "all", "-trials", "300", "-max-size-log", "10")
	if got != string(want) {
		t.Fatalf("`hetero all -trials 300 -max-size-log 10` differs from all_artifacts.txt (%d vs %d bytes); regenerate the record or fix the change", len(got), len(want))
	}
}
