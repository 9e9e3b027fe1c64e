package memmodel

import "testing"

// budgetModel builds a model whose footprint is exactly what the test
// stores: it watches no set.
func budgetModel() *Model {
	return New(Config{}, nil)
}

func TestPressureWatermarks(t *testing.T) {
	m := budgetModel()
	if got := m.Pressure(); got != PressureNone {
		t.Fatalf("unbudgeted pressure = %v, want none", got)
	}

	m.SetBudget(1000, 0, 0) // defaults: soft 850, hard 950
	if got := m.Budget(); got != 1000 {
		t.Fatalf("Budget = %d, want 1000", got)
	}
	for _, tc := range []struct {
		stored int64
		want   Pressure
	}{
		{840, PressureNone},
		{850, PressureSoft},
		{949, PressureSoft},
		{950, PressureHard},
	} {
		m.storedBytes = tc.stored
		if got := m.Pressure(); got != tc.want {
			t.Errorf("footprint %d: pressure = %v, want %v", tc.stored, got, tc.want)
		}
	}

	// Custom fractions.
	m.SetBudget(1000, 0.5, 0.9)
	m.storedBytes = 600
	if got := m.Pressure(); got != PressureSoft {
		t.Errorf("custom soft: pressure = %v, want soft", got)
	}

	// Hard is clamped to at least soft: an inverted pair degenerates to
	// one watermark rather than a hard band below the soft one.
	m.SetBudget(1000, 0.8, 0.2)
	m.storedBytes = 850
	if got := m.Pressure(); got != PressureHard {
		t.Errorf("clamped hard: pressure = %v, want hard", got)
	}
	m.storedBytes = 700
	if got := m.Pressure(); got != PressureNone {
		t.Errorf("below clamped pair: pressure = %v, want none", got)
	}

	// Disarm.
	m.SetBudget(0, 0, 0)
	m.storedBytes = 1 << 40
	if got := m.Pressure(); got != PressureNone {
		t.Errorf("disarmed pressure = %v, want none", got)
	}
}

// TestSoftWatermarkHits checks the crossing detector: sustained
// pressure is one hit; dropping below and climbing back is another.
func TestSoftWatermarkHits(t *testing.T) {
	m := budgetModel()
	m.SetBudget(1000, 0, 0)

	m.storedBytes = 800
	m.Pressure()
	if got := m.Stats().SoftWatermarkHits; got != 0 {
		t.Fatalf("hits below soft = %d, want 0", got)
	}

	m.storedBytes = 900
	m.Pressure()
	m.Pressure() // still above: same crossing, no second hit
	if got := m.Stats().SoftWatermarkHits; got != 1 {
		t.Fatalf("hits under sustained pressure = %d, want 1", got)
	}

	m.storedBytes = 800
	m.Pressure() // dropped below: re-arm the detector
	m.storedBytes = 960
	m.Pressure() // crossed again (straight past hard still counts soft)
	if got := m.Stats().SoftWatermarkHits; got != 2 {
		t.Fatalf("hits after recrossing = %d, want 2", got)
	}
}

// TestFootprintTerms checks Footprint sums both occupancy terms — the
// quantity the governor's watermarks act on.
func TestFootprintTerms(t *testing.T) {
	m := New(Config{RAMBytes: 1 << 30}, nil)
	set := table{bytes: 240}
	m.Watch(&set)
	if got := m.Footprint(); got != 240 {
		t.Fatalf("empty footprint = %d, want table-only 240", got)
	}
	if err := m.Store(1000); err != nil {
		t.Fatal(err)
	}
	set.grow(500)
	if got := m.Footprint(); got != 240+1000+500 {
		t.Fatalf("footprint = %d, want %d", got, 240+1000+500)
	}
	set.grow(-500)
	if got := m.Footprint(); got != 1240 {
		t.Fatalf("footprint after the watched set shrank = %d, want 1240", got)
	}
}

// TestNilModelBudget checks the nil-model paths the facade leans on.
func TestNilModelBudget(t *testing.T) {
	var m *Model
	m.SetBudget(100, 0, 0)
	if m.Budget() != 0 || m.Footprint() != 0 || m.Pressure() != PressureNone {
		t.Fatal("nil model must report zero budget, footprint, pressure")
	}
	m.Watch(&table{})
}
