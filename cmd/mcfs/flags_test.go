package main

import "testing"

func TestSize(t *testing.T) {
	for in, want := range map[string]int64{
		"": 0, "0": 0, "65536": 65536, "64K": 64 << 10, "64k": 64 << 10, "8M": 8 << 20, "1g": 1 << 30,
	} {
		var s Size
		if err := s.Set(in); err != nil || int64(s) != want {
			t.Errorf("Set(%q) = %d, %v; want %d", in, s, err, want)
		}
	}
	for _, in := range []string{"M", "-1", "1.5G", "12T", "abc"} {
		var s Size
		if err := s.Set(in); err == nil {
			t.Errorf("Set(%q) = %d, want an error", in, s)
		}
	}
	// The zero value prints empty, so the flag's default stays "".
	if got := new(Size).String(); got != "" {
		t.Errorf("zero Size prints %q, want empty", got)
	}
}
