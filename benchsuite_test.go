package mcfs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"mcfs"
	"mcfs/internal/bench"
	"mcfs/internal/obs"
)

func TestBenchReportSuite(t *testing.T) {
	report, err := mcfs.RunBenchReport(120)
	if err != nil {
		t.Fatal(err)
	}
	if report.Schema != bench.SchemaVersion {
		t.Errorf("schema = %d, want %d", report.Schema, bench.SchemaVersion)
	}
	want := []string{
		"explore-ext2-ext4", "explore-ext4-jffs2", "swarm-shared-visited",
		"crash-ext2-ext4", "journal-replay",
		"states-per-mb-exact", "states-per-mb-bitstate",
	}
	if len(report.Scenarios) != len(want) {
		t.Fatalf("scenarios = %d, want %d", len(report.Scenarios), len(want))
	}
	for i, name := range want {
		row := report.Scenarios[i]
		if row.Name != name {
			t.Errorf("scenario %d = %q, want %q", i, row.Name, name)
			continue
		}
		if row.Ops == 0 || row.OpsPerSec <= 0 || row.StatesPerSec <= 0 {
			t.Errorf("%s: empty rates: %+v", name, row)
		}
		var sum float64
		for _, share := range row.PhaseShares {
			sum += share
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: phase shares sum to %.4f, want ~1", name, sum)
		}
	}
	crash, _ := report.Scenario("crash-ext2-ext4")
	if crash.CrashPointsPerSec <= 0 {
		t.Error("crash scenario has no crash-point rate")
	}
	if crash.PhaseShares[obs.PhaseFsck] <= 0 {
		t.Error("crash scenario attributes no fsck time")
	}
	replay, _ := report.Scenario("journal-replay")
	if replay.ReplayOpsPerSec <= 0 {
		t.Error("journal scenario has no replay rate")
	}
	// Journal appends cost no *virtual* time, so the phase's share is
	// zero — but the recording must have been attributed (the phase
	// only appears when its timer fired).
	if _, ok := replay.PhaseShares[obs.PhaseJournal]; !ok {
		t.Error("journal scenario recorded no journal phase")
	}
	// The states-per-MB pair pins the reduced-fidelity capacity claim:
	// same table byte budget, bitstate holds an order of magnitude more
	// states, and its row is honest about the fidelity it ran at.
	exact, _ := report.Scenario("states-per-mb-exact")
	bits, _ := report.Scenario("states-per-mb-bitstate")
	if exact.StatesPerMB <= 0 || bits.StatesPerMB <= 0 {
		t.Fatalf("states-per-mb rates missing: exact %v, bitstate %v",
			exact.StatesPerMB, bits.StatesPerMB)
	}
	if bits.StatesPerMB < 10*exact.StatesPerMB {
		t.Errorf("bitstate states/MB = %v, want >= 10x exact (%v)",
			bits.StatesPerMB, exact.StatesPerMB)
	}
	if exact.Fidelity != "" {
		t.Errorf("exact scenario fidelity = %q, want omitted", exact.Fidelity)
	}
	if bits.Fidelity != "bitstate" || bits.OmissionProb <= 0 {
		t.Errorf("bitstate scenario fidelity = %q omission = %v, want bitstate with estimate",
			bits.Fidelity, bits.OmissionProb)
	}

	// The emitted document must round-trip and self-compare clean —
	// the property the check.sh gate depends on.
	var buf bytes.Buffer
	if err := report.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var back bench.Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	deltas, err := bench.Compare(report, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	if regs := bench.Regressions(deltas); len(regs) != 0 {
		t.Errorf("self-compare regressed: %v", regs)
	}
}

// TestBenchReportReproducesCommittedTrajectory: the suite runs in
// virtual time, so at the committed budget it must reproduce the
// committed BENCH_mc.json row for row, byte for byte — the
// whole-pipeline half of the golden-artifact oracle. The one exception
// is swarm-shared-visited: which of its two workers claims a state
// first is the goroutine scheduler's choice, so its state counts and
// rates move by a state or two between runs; it must still execute the
// same ops and pass the comparison gate.
func TestBenchReportReproducesCommittedTrajectory(t *testing.T) {
	committed, err := bench.Load("BENCH_mc.json")
	if err != nil {
		t.Fatal(err)
	}
	report, err := mcfs.RunBenchReport(committed.Budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Scenarios) != len(committed.Scenarios) {
		t.Fatalf("%d scenarios, committed %d", len(report.Scenarios), len(committed.Scenarios))
	}
	for i, want := range committed.Scenarios {
		got := report.Scenarios[i]
		if want.Name == "swarm-shared-visited" {
			if got.Name != want.Name || got.Ops != want.Ops {
				t.Errorf("%s: name %q ops %d, committed ops %d", want.Name, got.Name, got.Ops, want.Ops)
			}
			continue
		}
		g, _ := json.MarshalIndent(got, "", "  ")
		w, _ := json.MarshalIndent(want, "", "  ")
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from BENCH_mc.json:\ngot  %s\nwant %s", want.Name, g, w)
		}
	}
	deltas, err := bench.Compare(committed, report, bench.DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if regs := bench.Regressions(deltas); len(regs) != 0 {
		t.Errorf("regressions against BENCH_mc.json: %v", regs)
	}
}
