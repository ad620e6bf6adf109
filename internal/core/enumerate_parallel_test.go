package core

import (
	"testing"
)

func TestParallelEnumerationMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{3, 1}, {4, 1}, {4, 2}} {
		spec := MustUniform(tc.n, tc.k)
		ss, err := FullSpace(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := EnumeratePureNE(spec, SumDistances, ss, 0)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if serial.Checked != parallel.Checked {
			t.Fatalf("(%d,%d): checked %d vs %d", tc.n, tc.k, serial.Checked, parallel.Checked)
		}
		if len(serial.Equilibria) != len(parallel.Equilibria) {
			t.Fatalf("(%d,%d): equilibria %d vs %d", tc.n, tc.k,
				len(serial.Equilibria), len(parallel.Equilibria))
		}
		for i := range serial.Equilibria {
			if !serial.Equilibria[i].Equal(parallel.Equilibria[i]) {
				t.Fatalf("(%d,%d): equilibrium %d differs (order must match serial)", tc.n, tc.k, i)
			}
		}
		if !parallel.Complete {
			t.Fatal("uncapped parallel scan must be complete")
		}
	}
}

func TestParallelEnumerationCap(t *testing.T) {
	spec := MustUniform(4, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{MaxEquilibria: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Equilibria) != 1 {
		t.Fatalf("cap not honored: %d equilibria", len(res.Equilibria))
	}
}

func TestParallelEnumerationSingleProfileSpace(t *testing.T) {
	spec := MustUniform(3, 1)
	ss := &SearchSpace{PerNode: [][]Strategy{
		{{1}}, {{2}}, {{0}},
	}}
	res, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != 1 || len(res.Equilibria) != 1 {
		t.Fatalf("single-profile space: checked=%d equilibria=%d", res.Checked, len(res.Equilibria))
	}
}

func TestParallelEnumerationBadSpace(t *testing.T) {
	spec := MustUniform(3, 1)
	if _, err := EnumeratePureNEParallelOpts(spec, SumDistances,
		&SearchSpace{PerNode: make([][]Strategy, 2)}, EnumConfig{Workers: 2}); err == nil {
		t.Fatal("expected error for wrong node count")
	}
	if _, err := EnumeratePureNEParallelOpts(spec, SumDistances,
		&SearchSpace{PerNode: make([][]Strategy, 3)}, EnumConfig{Workers: 2}); err == nil {
		t.Fatal("expected error for empty sets")
	}
}
