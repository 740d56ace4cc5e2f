package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
)

func TestSpecValidate(t *testing.T) {
	good := Spec{Trace: "zos-lspr-cb84", Instructions: 1000}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{},                           // nothing selected
		{Trace: "x", TraceFile: "y"}, // two selections
		{Trace: "zos-lspr-cb84", Config: "bogus"},        // unknown config
		{Trace: "zos-lspr-cb84", Custom: &core.Config{}}, // invalid custom
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
	// Default config name is the two-level design.
	if good.configName() != ConfigBTB2 {
		t.Errorf("default config = %q", good.configName())
	}
}

func TestSpecRoundTripAndRun(t *testing.T) {
	params := engine.DefaultParams()
	params.WarmupInstructions = 10_000
	prof := quickProfile()
	prof.Instructions = 60_000
	spec := Spec{
		Profile: &prof,
		Config:  ConfigNoBTB2,
		Params:  &params,
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, string(data)); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Profile == nil || loaded.Profile.Name != prof.Name {
		t.Fatalf("profile lost in round trip: %+v", loaded)
	}
	if loaded.Params.WarmupInstructions != 10_000 {
		t.Error("params lost in round trip")
	}
	// Running the loaded spec reproduces the serial oracle's run of the
	// original spec exactly.
	u, err := spec.Unit()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := RunUnitsSerial([]Unit{u})
	if err != nil {
		t.Fatal(err)
	}
	direct := oracle[0]
	replayed, err := loaded.Run()
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cycles != replayed.Cycles || direct.Outcomes != replayed.Outcomes {
		t.Error("spec replay diverged from direct run")
	}
	if direct.Instructions != 50_000 { // 60k minus 10k warmup
		t.Errorf("instructions = %d", direct.Instructions)
	}
}

func TestSpecCustomConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Tracker.Count = 5
	prof := quickProfile()
	prof.Instructions = 30_000
	spec := Spec{Profile: &prof, Custom: &cfg}
	r, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Config != "custom" {
		t.Errorf("config label = %q", r.Config)
	}
}

func TestLoadSpecErrors(t *testing.T) {
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(path, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err == nil {
		t.Error("malformed JSON accepted")
	}
	if err := writeFile(path, "{}"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err == nil {
		t.Error("empty spec accepted")
	}
}

// TestLoadSpecRejectsUnknownFields: a misspelled key or a knob the model
// no longer has is an error, not a silently ignored key that leaves the
// run at its defaults.
func TestLoadSpecRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	for key, spec := range map[string]string{
		"instructons":       `{"trace":"zos-lspr-cb84","instructons":1000}`,
		"MispredictPenalty": `{"trace":"zos-lspr-cb84","params":{"WarmupInstructions":0,"MispredictPenalty":30}}`,
		"PHTEntries":        `{"trace":"zos-lspr-cb84","custom":{"PHTEntries":0}}`,
		"StartDelay":        `{"trace":"zos-lspr-cb84","custom":{"Tracker":{"Count":3,"StartDelay":7}}}`,
		"PartialRows":       `{"trace":"zos-lspr-cb84","custom":{"Tracker":{"Count":3,"PartialRows":4}}}`,
		"RowBytes":          `{"trace":"zos-lspr-cb84","custom":{"Tracker":{"Count":3,"RowBytes":64}}}`,
	} {
		if err := writeFile(path, spec); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSpec(path)
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("spec with unknown key %q: err = %v, want an error naming it", key, err)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
