package costmodel

import "testing"

func TestWorkloadProfileMix(t *testing.T) {
	var empty WorkloadProfile
	if !empty.Empty() || empty.ReadFraction() != 0 {
		t.Fatalf("empty profile: %+v", empty)
	}
	p := WorkloadProfile{Reads: 3, Writes: 1}
	if p.Total() != 4 || p.ReadFraction() != 0.75 {
		t.Fatalf("mix: total=%d frac=%v", p.Total(), p.ReadFraction())
	}
}

func TestRecommendBackend(t *testing.T) {
	cases := []struct {
		name   string
		p      WorkloadProfile
		want   string
		reason string
	}{
		{"empty", WorkloadProfile{}, "auto", "no evidence keeps the default"},
		{"read-heavy", WorkloadProfile{Reads: 90, Writes: 10}, "blocked", "queries dominate"},
		{"balanced", WorkloadProfile{Reads: 50, Writes: 50}, "blocked", "blocked wins every query tier"},
		{"write-heavy", WorkloadProfile{Reads: 10, Writes: 90}, "blockfenwick", "updates dominate"},
		{"boundary", WorkloadProfile{Reads: 1, Writes: 2}, "blocked", "exactly 1/3 is not under the threshold"},
	}
	for _, c := range cases {
		if got := RecommendBackend(c.p); got != c.want {
			t.Errorf("%s: RecommendBackend = %q, want %q (%s)", c.name, got, c.want, c.reason)
		}
	}
}

func TestHotSlabs(t *testing.T) {
	// A hot spike in the middle: balanced slabs must isolate it.
	heat := []uint64{1, 1, 1, 1, 100, 100, 1, 1, 1, 1}
	slabs := HotSlabs(heat, 3)
	if len(slabs) < 2 || len(slabs) > 3 {
		t.Fatalf("slabs = %v", slabs)
	}
	// Slabs must tile [0, len) contiguously.
	at := 0
	for _, s := range slabs {
		if s[0] != at || s[1] <= s[0] {
			t.Fatalf("slabs do not tile: %v", slabs)
		}
		at = s[1]
	}
	if at != len(heat) {
		t.Fatalf("slabs end at %d, want %d: %v", at, len(heat), slabs)
	}
	// The heaviest slab must not carry everything: the spike is split
	// away from at least one cold region.
	sum := func(s [2]int) (v uint64) {
		for _, h := range heat[s[0]:s[1]] {
			v += h
		}
		return
	}
	var max uint64
	for _, s := range slabs {
		if v := sum(s); v > max {
			max = v
		}
	}
	if max >= 208 {
		t.Fatalf("one slab holds all the heat: %v", slabs)
	}

	// Degenerate shapes.
	if got := HotSlabs(nil, 4); got != nil {
		t.Errorf("nil heat: %v", got)
	}
	if got := HotSlabs(heat, 0); got != nil {
		t.Errorf("n=0: %v", got)
	}
	one := HotSlabs(heat, 1)
	if len(one) != 1 || one[0] != [2]int{0, len(heat)} {
		t.Errorf("n=1: %v", one)
	}
	// Cold marginal: equal-width split.
	cold := HotSlabs(make([]uint64, 8), 4)
	if len(cold) != 4 || cold[3] != [2]int{6, 8} {
		t.Errorf("cold split: %v", cold)
	}
	// More slabs than cells clamps.
	tiny := HotSlabs([]uint64{5, 5}, 10)
	if len(tiny) > 2 {
		t.Errorf("clamp: %v", tiny)
	}
}
