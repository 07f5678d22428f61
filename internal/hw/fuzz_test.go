package hw

import (
	"fmt"
	"testing"
)

// compact renders c in ParseConfig's "<cus>/<cufreq>/<memfreq>" form.
func compact(c Config) string {
	return fmt.Sprintf("%d/%d/%d", c.Compute.CUs, int(c.Compute.Freq), int(c.Memory.BusFreq))
}

// FuzzParseConfig: ParseConfig never panics, accepts only grid
// configurations, and whatever it accepts round-trips through both the
// String() form and the compact form. The seed corpus holds every grid
// configuration in both forms, so the round trips cover the whole grid
// on every plain `go test` run.
func FuzzParseConfig(f *testing.F) {
	for _, c := range ConfigSpace() {
		f.Add(c.String())
		f.Add(compact(c))
	}
	for _, s := range []string{
		"", "/", "//", "1/2/3", "-4/300/475", "32CU@1000MHz", "32CU@)(mem@1375MHz",
		"32CU@1000MHz/mem@1375MHz(264GB/s", "4CU@300MHz/mem@475MHz()()", " 8 /400/ 625",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseConfig(s)
		if err != nil {
			return
		}
		if !cfg.Valid() {
			t.Fatalf("ParseConfig(%q) = %v, which is off the grid", s, cfg)
		}
		for _, form := range []string{cfg.String(), compact(cfg)} {
			back, err := ParseConfig(form)
			if err != nil || back != cfg {
				t.Fatalf("ParseConfig(%q) = %v, %v; want %v (parsed from %q)", form, back, err, cfg, s)
			}
		}
	})
}
