package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// SpecFile is the on-disk form of a complete fault configuration: the
// execution-time perturbation spec and the hardware-availability failure
// spec, either of which may be omitted. It is the schema behind the
// experiments CLI's -faults-spec flag, letting campaigns be re-run from a
// checked-in JSON file instead of a stack of individual flags.
type SpecFile struct {
	// Perturb parameterizes execution-time faults (overruns, bursts, PE
	// slowdowns); nil means no time perturbation.
	Perturb *Spec `json:"perturb,omitempty"`
	// Failures parameterizes hardware-availability faults (PE death and
	// outage, link outage); nil means the topology never degrades.
	Failures *FailureSpec `json:"failures,omitempty"`
}

// Validate checks both halves of the file.
func (f *SpecFile) Validate() error {
	if f.Perturb != nil {
		if err := f.Perturb.Validate(); err != nil {
			return err
		}
	}
	if f.Failures != nil {
		if err := f.Failures.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// DecodeSpecFile parses a fault configuration from JSON, rejecting unknown
// fields (a typo'd key silently ignored would make a campaign lie about what
// it injected) and validating both specs before returning.
func DecodeSpecFile(data []byte) (*SpecFile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f SpecFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("faults: decode spec file: %w", err)
	}
	// A second document in the same stream is a malformed file, not extra
	// whitespace.
	if dec.More() {
		return nil, fmt.Errorf("faults: spec file contains trailing data")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// LoadSpecFile reads and decodes a fault configuration from disk.
func LoadSpecFile(path string) (*SpecFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: read spec file: %w", err)
	}
	return DecodeSpecFile(data)
}
