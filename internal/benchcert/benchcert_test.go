package benchcert

import (
	"strings"
	"testing"
)

// TestTValue95 pins the Student-t table against published two-sided 95%
// critical values, and the conservative df-30 value past the table.
func TestTValue95(t *testing.T) {
	for _, tc := range []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {8, 2.306}, {9, 2.262}, {10, 2.228}, {19, 2.093}, {30, 2.042}, {100, 2.042},
	} {
		if got := tValue95(tc.df); got != tc.want {
			t.Errorf("tValue95(%d) = %v, want %v", tc.df, got, tc.want)
		}
	}
}

func TestMeanCI95(t *testing.T) {
	if mean, lo := meanCI95([]float64{5, 5, 5, 5, 5}); mean != 5 || lo != 5 {
		t.Fatalf("constant samples: mean %v ci low %v, want exactly 5", mean, lo)
	}
	// sd 1/√2 over 5 samples: lo = 5 − 2.776·0.7071/√5.
	if mean, lo := meanCI95([]float64{4, 5, 6, 5, 5}); mean != 5 || lo < 4.1221 || lo > 4.1222 {
		t.Fatalf("noisy samples: mean %v ci low %v, want 5 and 4.12215", mean, lo)
	}
	if mean, lo := meanCI95([]float64{3}); mean != 3 || lo != 3 {
		t.Fatalf("single sample must collapse to the point, got mean %v low %v", mean, lo)
	}
}

// TestStatistics pins each statistic's derivation and that NewClaim reports
// exactly what Check derives.
func TestStatistics(t *testing.T) {
	num := []float64{30, 20, 60, 10, 40}
	den := []float64{10, 10, 20, 10, 10}
	for _, tc := range []struct {
		stat Stat
		dir  Direction
		want float64
	}{
		{RatioOfSums, AtLeast, 160.0 / 60},
		{Worst, AtLeast, 1},
		{Worst, AtMost, 4},
		{MeanCI95, AtLeast, 2.6},
	} {
		c := NewClaim("x", tc.stat, tc.dir, 0, num, den)
		if !near(c.Value, tc.want) {
			t.Errorf("%s %s: value %v, want %v", tc.stat, tc.dir, c.Value, tc.want)
		}
		if err := Check(&Cert{Claims: []Claim{c}}, nil); err != nil {
			t.Errorf("%s %s: NewClaim output rejected: %v", tc.stat, tc.dir, err)
		}
	}
}

// TestCheckRejectsMalformedClaims covers the schema errors no generator
// emits: an unknown statistic or direction, a ≤ CI claim, bad samples,
// duplicate names and an empty certificate.
func TestCheckRejectsMalformedClaims(t *testing.T) {
	good := NewClaim("x", RatioOfSums, AtLeast, 1, []float64{2, 2, 2, 2, 2}, []float64{1, 1, 1, 1, 1})
	mutate := func(f func(*Claim)) []Claim {
		c := good
		c.Num = append([]float64(nil), good.Num...)
		f(&c)
		return []Claim{c}
	}
	for name, tc := range map[string]struct {
		claims []Claim
		want   string
	}{
		"unknown stat":       {mutate(func(c *Claim) { c.Stat = "median" }), "unknown statistic"},
		"unknown direction":  {mutate(func(c *Claim) { c.Direction = ">" }), "direction"},
		"le ci claim":        {[]Claim{NewClaim("x", MeanCI95, AtMost, 1, good.Num, good.Den)}, "CI low end"},
		"negative numerator": {mutate(func(c *Claim) { c.Num[2] = -1 }), "sample 2"},
		"zero denominator":   {mutate(func(c *Claim) { c.Den = []float64{1, 1, 0, 1, 1} }), "sample 2"},
		"duplicate name":     {[]Claim{good, good}, "appears twice"},
		"no claims":          {nil, "no claims"},
	} {
		err := Check(&Cert{Claims: tc.claims}, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, tc.want)
		}
	}
}
