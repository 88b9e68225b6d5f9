package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 1 || Fixture() != 2 {
		t.Fatal("fixture")
	}
	Bare()
	if (Tally{n: 3}).String() != "3" {
		t.Fatal("tally")
	}
}
