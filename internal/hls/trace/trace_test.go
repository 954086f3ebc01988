package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestVCDStructure(t *testing.T) {
	var buf bytes.Buffer
	v := NewVCD(&buf, "island_detection_2d", "10ns")
	idx := v.Signal("scan_idx", 16)
	lit := v.Signal("lit", 1)
	if err := v.Begin(); err != nil {
		t.Fatal(err)
	}
	v.Set(idx, 0)
	v.Set(lit, 1)
	v.Tick(1)
	v.Set(idx, 1)
	v.Set(lit, 0)
	v.Tick(1)
	v.Set(idx, 2)
	v.Set(lit, 0) // unchanged: must not re-emit
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"$timescale 10ns $end",
		"$scope module island_detection_2d $end",
		"$var wire 16 ! scan_idx $end",
		"$var wire 1 \" lit $end",
		"$enddefinitions $end",
		"#0", "b0 !", "1\"",
		"#1", "b1 !", "0\"",
		"#2", "b10 !",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
	// The unchanged lit=0 at #2 must appear exactly once (at #1).
	if strings.Count(out, "0\"") != 1 {
		t.Errorf("unchanged value re-emitted:\n%s", out)
	}
}

func TestVCDDefaults(t *testing.T) {
	var buf bytes.Buffer
	v := NewVCD(&buf, "", "")
	v.Signal("x", 8)
	if err := v.Begin(); err != nil {
		t.Fatal(err)
	}
	v.Close()
	out := buf.String()
	if !strings.Contains(out, "$scope module design $end") ||
		!strings.Contains(out, "$timescale 10ns $end") {
		t.Fatalf("defaults missing:\n%s", out)
	}
}

func TestVCDTimeAdvances(t *testing.T) {
	var buf bytes.Buffer
	v := NewVCD(&buf, "m", "1ns")
	s := v.Signal("s", 4)
	v.Begin()
	v.Set(s, 1)
	v.Tick(5)
	v.Set(s, 2)
	v.Tick(3)
	v.Close()
	out := buf.String()
	if !strings.Contains(out, "#0") || !strings.Contains(out, "#5") {
		t.Fatalf("timestamps wrong:\n%s", out)
	}
}

func TestVCDErrorsAndPanics(t *testing.T) {
	var buf bytes.Buffer
	v := NewVCD(&buf, "m", "")
	s := v.Signal("s", 1)
	if err := v.Tick(1); err == nil {
		t.Error("Tick before Begin must error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Set before Begin must panic")
			}
		}()
		v.Set(s, 1)
	}()
	v.Begin()
	if err := v.Begin(); err == nil {
		t.Error("double Begin must error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Signal after Begin must panic")
			}
		}()
		v.Signal("late", 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown signal must panic")
			}
		}()
		v.Set(SignalID(99), 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad width must panic")
			}
		}()
		NewVCD(&buf, "m", "").Signal("w", 0)
	}()
}

func TestIDCodes(t *testing.T) {
	if idCode(0) != "!" || idCode(93) != "~" {
		t.Fatalf("single-char codes wrong: %q %q", idCode(0), idCode(93))
	}
	if idCode(94) != "!!" {
		t.Fatalf("multi-char rollover wrong: %q", idCode(94))
	}
	// All distinct over a wide range.
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		c := idCode(i)
		if seen[c] {
			t.Fatalf("duplicate code %q at %d", c, i)
		}
		seen[c] = true
	}
}
