package workload

import (
	"encoding/json"
	"fmt"
	"io"
)

// Profiles serialize as JSON so downstream users can characterize their own
// applications (the way the paper characterized SPEC and the network apps)
// and run them through the same experiment machinery:
//
//	latch-paper trace -profile my-app.json
//
// All Profile fields are exported and carry their Go names in JSON.

// WriteProfile serializes p as indented JSON.
func WriteProfile(w io.Writer, p Profile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadProfile parses and validates a JSON profile.
func ReadProfile(r io.Reader) (Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Profile{}, fmt.Errorf("workload: parsing profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	if _, exists := registry[p.Name]; exists {
		return Profile{}, fmt.Errorf("workload: profile name %q collides with a built-in benchmark", p.Name)
	}
	return p, nil
}
