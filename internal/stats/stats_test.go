package stats

import "testing"

func TestOutcomeStrings(t *testing.T) {
	for o := Outcome(0); o < NumOutcomes; o++ {
		if o.String() == "" {
			t.Errorf("outcome %d has empty string", o)
		}
	}
	if Outcome(99).String() != "Outcome(99)" {
		t.Error("unknown outcome string wrong")
	}
}

func TestBadClassification(t *testing.T) {
	// Figure 4: bad outcomes are dynamic mispredicts plus surprise
	// branches guessed or resolved taken.
	good := []Outcome{GoodPredicted, GoodSurpriseNT}
	bad := []Outcome{BadWrongDir, BadWrongTarget, BadSurpriseCompulsory,
		BadSurpriseLatency, BadSurpriseCapacity}
	for _, o := range good {
		if o.Bad() {
			t.Errorf("%v classified bad", o)
		}
	}
	for _, o := range bad {
		if !o.Bad() {
			t.Errorf("%v classified good", o)
		}
	}
}

func TestCountsArithmetic(t *testing.T) {
	var c Counts
	c.Add(GoodPredicted)
	c.Add(GoodPredicted)
	c.Add(GoodSurpriseNT)
	c.Add(BadWrongDir)
	c.Add(BadWrongTarget)
	c.Add(BadSurpriseCapacity)
	if c.Total() != 6 {
		t.Errorf("Total = %d", c.Total())
	}
	if c.Bad() != 3 {
		t.Errorf("Bad = %d", c.Bad())
	}
	if c.BadRate() != 0.5 {
		t.Errorf("BadRate = %v", c.BadRate())
	}
	if c.Rate(GoodPredicted) != 2.0/6.0 {
		t.Errorf("Rate = %v", c.Rate(GoodPredicted))
	}
}

func TestEmptyCounts(t *testing.T) {
	var c Counts
	if c.BadRate() != 0 || c.Rate(GoodPredicted) != 0 || c.Total() != 0 {
		t.Error("empty counts not zero")
	}
}
