package main

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/units"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"32KiB", 32 * units.KiB},
		{"1MiB", units.MiB},
		{"4 MiB", 4 * units.MiB},
		{"2GiB", 2 * units.GiB},
		{"100MB", 100 * units.MB},
		{"512KB", 512 * units.KB},
		{"0.5MiB", units.MiB / 2},
		{"4096", 4096},
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if err != nil {
			t.Errorf("parseSize(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	if _, err := parseSize("abcMiB"); err == nil {
		t.Error("garbage size should fail")
	}
}

func TestBuildPattern(t *testing.T) {
	p, err := buildPattern(32, 48, "shared", "strided", "512KiB")
	if err != nil {
		t.Fatal(err)
	}
	if p.Layout != pattern.SharedFile || p.Spatiality != pattern.Strided1D || p.RequestSize != 512*units.KiB {
		t.Fatalf("pattern: %+v", p)
	}
	p, err = buildPattern(8, 12, "fpp", "contiguous", "1MiB")
	if err != nil {
		t.Fatal(err)
	}
	if p.Layout != pattern.FilePerProcess {
		t.Fatalf("pattern: %+v", p)
	}
	if _, err := buildPattern(8, 12, "weird", "contiguous", "1MiB"); err == nil {
		t.Error("unknown layout should fail")
	}
	if _, err := buildPattern(8, 12, "shared", "weird", "1MiB"); err == nil {
		t.Error("unknown spatiality should fail")
	}
	// fpp strided is invalid by the pattern model.
	if _, err := buildPattern(8, 12, "fpp", "strided", "1MiB"); err == nil {
		t.Error("fpp+strided should fail validation")
	}
}
