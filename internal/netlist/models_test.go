package netlist

import "testing"

func TestBuildModelSetValidates(t *testing.T) {
	nl := single()
	nl.Instances[0].Gate = "bogus"
	if _, err := BuildModelSet(nl, fastParams(), 20e-12); err == nil {
		t.Error("invalid netlist accepted")
	}
}
