package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mcfs/internal/checker"
	"mcfs/internal/workload"
)

// adversarialOps are write_file records no engine run journals: a
// terabyte size, a terabyte offset, a negative size. Executed, the first
// two allocate the extent (a fatal out-of-memory) and the third panics in
// the target; Decode must reject all three.
var adversarialOps = []string{
	`{"t":"op","seq":9,"depth":1,"op":{"kind":"write_file","path":"/f0","size":1000000000000,"byte":170},"errnos":["OK","OK"],"state":"64c4d02c8022dd834c92b4f7e056d868","novel":true,"expand":true}`,
	`{"t":"op","seq":9,"depth":1,"op":{"kind":"write_file","path":"/f0","off":1000000000000,"size":1,"byte":170},"errnos":["OK","OK"],"state":"64c4d02c8022dd834c92b4f7e056d868","novel":true,"expand":true}`,
	`{"t":"op","seq":9,"depth":1,"op":{"kind":"write_file","path":"/f0","size":-1,"byte":170},"errnos":["OK","OK"],"state":"64c4d02c8022dd834c92b4f7e056d868","novel":true,"expand":true}`,
}

func TestDecodeRejectsOutOfRangeExtent(t *testing.T) {
	const limit = checker.MaxEqualizationPad
	for _, r := range []OpRecord{
		{Kind: "write_file", Size: -1},
		{Kind: "write_file", Off: -1, Size: 1},
		{Kind: "write_file", Size: limit + 1},
		{Kind: "write_file", Off: limit, Size: 1},
		{Kind: "write_file", Off: 1 << 62, Size: 1 << 62}, // Off+Size overflows int64
		{Kind: "truncate", Size: 1_000_000_000_000},
	} {
		if op, err := r.Decode(); err == nil {
			t.Errorf("%+v decoded to %v, want an extent error", r, op)
		}
	}
	if _, err := (OpRecord{Kind: "write_file", Off: limit - 1, Size: 1}).Decode(); err != nil {
		t.Errorf("an extent ending at the cap: %v", err)
	}
	for _, line := range adversarialOps {
		recs, err := Read(bytes.NewReader([]byte(line)))
		if err != nil || len(recs) != 1 {
			t.Fatalf("Read(%s) = %d records, %v", line, len(recs), err)
		}
		if _, err := recs[0].Op.Decode(); err == nil {
			t.Errorf("Decode accepted %s", line)
		}
	}
}

// FuzzJournalRead: Read, then Decode over every op a record carries (op
// records, crash records, bug trails), returns an error or in-bounds
// ops — never a panic, a hang, or an extent a target would have to
// allocate. Seeded with the committed golden journals and the
// adversarial records above.
func FuzzJournalRead(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("..", "..", "mc", "testdata", "golden", "*", "journal.jsonl"))
	if err != nil || len(goldens) != 4 {
		f.Fatalf("golden journals: %v, %v (want 4)", goldens, err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, line := range adversarialOps {
		f.Add([]byte(line + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		check := func(op workload.Op) {
			if op.Off < 0 || op.Size < 0 || op.Off+op.Size > checker.MaxEqualizationPad {
				t.Fatalf("decoded an out-of-bounds op: %v", op)
			}
		}
		for _, r := range recs {
			var ops []OpRecord
			switch {
			case r.Op != nil:
				ops = append(ops, *r.Op)
			case r.Crash != nil && r.Crash.Op != nil:
				ops = append(ops, *r.Crash.Op)
			case r.Bug != nil:
				ops = r.Bug.Trail
			}
			trail, err := DecodeTrail(ops)
			if err != nil {
				continue
			}
			for _, op := range trail {
				check(op)
			}
		}
	})
}
