package main

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/units"
)

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
