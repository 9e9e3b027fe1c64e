package mcfs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"sync"
	"testing"

	"mcfs"
	"mcfs/internal/obs"
)

var updateBench = flag.Bool("update", false, "rewrite BENCH_mc.json from the current suite")

var (
	benchOnce   sync.Once
	benchResult mcfs.BenchReport
	benchErr    error
)

// benchReport runs the suite once per test binary; both tests below read
// the same report.
func benchReport(t *testing.T) mcfs.BenchReport {
	t.Helper()
	benchOnce.Do(func() { benchResult, benchErr = mcfs.RunBenchReport() })
	if benchErr != nil {
		t.Fatal(benchErr)
	}
	return benchResult
}

// TestBenchReportSuite checks what every report must show, whatever its
// numbers (checkBenchReport), and that the emitted document round-trips
// through JSON unchanged — the property the -update rewrite and the
// golden comparison depend on.
func TestBenchReportSuite(t *testing.T) {
	report := benchReport(t)
	if report.Schema != 1 || report.Budget != mcfs.BenchBudget {
		t.Errorf("schema %d budget %d, want schema 1 budget %d", report.Schema, report.Budget, mcfs.BenchBudget)
	}
	checkBenchReport(t, report)
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back mcfs.BenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.MarshalIndent(back, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("report does not round-trip through JSON:\nfirst  %s\nsecond %s", data, again)
	}
}

// TestBenchReportReproducesCommittedTrajectory: the suite runs in
// virtual time, so it must reproduce the committed BENCH_mc.json row for
// row, byte for byte — the whole-pipeline half of the golden-artifact
// oracle; `-update` rewrites the file, only for a change meant to alter
// what the suite measures. The one exception is swarm-shared-visited:
// which of its two workers claims a state first is the goroutine
// scheduler's choice, so its state counts and rates move by a state or
// two between runs; it must still execute the same ops, with its state
// count and rates within 10% of the committed ones.
func TestBenchReportReproducesCommittedTrajectory(t *testing.T) {
	report := benchReport(t)
	if *updateBench {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("BENCH_mc.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile("BENCH_mc.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed mcfs.BenchReport
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	if report.Schema != committed.Schema || report.Budget != committed.Budget {
		t.Errorf("schema %d budget %d, committed schema %d budget %d",
			report.Schema, report.Budget, committed.Schema, committed.Budget)
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
			for _, f := range []struct {
				field     string
				got, want float64
			}{
				{"unique_states", float64(got.UniqueStates), float64(want.UniqueStates)},
				{"ops_per_sec", got.OpsPerSec, want.OpsPerSec},
				{"states_per_sec", got.StatesPerSec, want.StatesPerSec},
			} {
				if math.Abs(f.got-f.want) > 0.10*f.want {
					t.Errorf("%s: %s = %v, more than 10%% off the committed %v", want.Name, f.field, f.got, f.want)
				}
			}
			continue
		}
		g, _ := json.MarshalIndent(got, "", "  ")
		w, _ := json.MarshalIndent(want, "", "  ")
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from BENCH_mc.json:\ngot  %s\nwant %s", want.Name, g, w)
		}
	}
}

// checkBenchReport checks what every report must show, whatever its
// numbers: the seven scenarios in order, each with rates and a full
// phase attribution, and each special row with the measurement it
// exists for.
func checkBenchReport(t *testing.T, report mcfs.BenchReport) {
	t.Helper()
	want := []string{
		"explore-ext2-ext4", "explore-ext4-jffs2", "swarm-shared-visited",
		"crash-ext2-ext4", "journal-replay",
		"states-per-mb-exact", "states-per-mb-bitstate",
	}
	if len(report.Scenarios) != len(want) {
		t.Fatalf("scenarios = %d, want %d", len(report.Scenarios), len(want))
	}
	rows := make(map[string]mcfs.BenchScenario, len(want))
	for i, name := range want {
		row := report.Scenarios[i]
		rows[row.Name] = row
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
	crash := rows["crash-ext2-ext4"]
	if crash.CrashPointsPerSec <= 0 {
		t.Error("crash scenario has no crash-point rate")
	}
	if crash.PhaseShares[obs.PhaseFsck] <= 0 {
		t.Error("crash scenario attributes no fsck time")
	}
	replay := rows["journal-replay"]
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
	exact, bits := rows["states-per-mb-exact"], rows["states-per-mb-bitstate"]
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
}
