package compile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// ToJSON serializes the plan, indented, for the CLI, golden files and
// tooling: AppendPlan's bytes through json.Indent. Physical mapping plans
// (Options.Plans) are execution artifacts and are not serialized; rebuild
// them with mapping.NewPlan from the per-layer mappings.
func (p *NetworkPlan) ToJSON() ([]byte, error) {
	compact, err := AppendPlan(nil, p)
	if err != nil {
		return nil, fmt.Errorf("compile: marshal plan: %w", err)
	}
	var out bytes.Buffer
	if err := json.Indent(&out, compact, "", "  "); err != nil {
		return nil, fmt.Errorf("compile: indent plan: %w", err)
	}
	return out.Bytes(), nil
}

// Encode writes the plan to w as a single compact JSON document with a
// trailing newline — the serving serialization: vwsdkd caches and serves
// these bytes, so the wire format skips ToJSON's indentation (roughly a
// third of the indented size for zoo networks). It builds the bytes with
// AppendPlan and hands them to w in one Write. FromJSON reads both forms;
// CheckPlan reads only this one.
func (p *NetworkPlan) Encode(w io.Writer) error {
	data, err := AppendPlan(nil, p)
	if err != nil {
		return fmt.Errorf("compile: encode plan: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("compile: encode plan: %w", err)
	}
	return nil
}

// FromJSON deserializes a plan produced by Encode or ToJSON and validates
// it (Validate): its mappings must be the ones the cost model derives for
// their layers and its totals consistent with its per-layer entries.
// Encode's compact bytes take a one-pass decoder that reads only the
// canonical form; any other input, the indented form included, is decoded
// by encoding/json, so FromJSON accepts the same inputs, and decodes them
// to the same plans, as encoding/json.
func FromJSON(data []byte) (*NetworkPlan, error) {
	p, ok := decodePlan(data)
	if !ok {
		p = new(NetworkPlan)
		if err := json.Unmarshal(data, p); err != nil {
			return nil, fmt.Errorf("compile: unmarshal plan: %w", err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
