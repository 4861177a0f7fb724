package optimize

import (
	"strconv"

	"repro/internal/cliutil"
	"repro/internal/compile"
)

// AppendEvent appends e as one line of the /v1/optimize stream and returns
// the extended buffer, allocating only if dst lacks capacity. The bytes are
// exactly what encoding/json's Encoder writes for e, trailing newline
// included: By omitted when 0, Point omitted when nil, encoding/json's
// float format and its HTML-safe string escaping. Like encoding/json, it
// fails on a NaN or infinite energy.
func AppendEvent(dst []byte, e Event) ([]byte, error) {
	dst = cliutil.AppendJSONString(append(dst, `{"event":`...), e.Kind)
	dst = strconv.AppendInt(append(dst, `,"id":`...), int64(e.ID), 10)
	if e.By != 0 {
		dst = strconv.AppendInt(append(dst, `,"by":`...), int64(e.By), 10)
	}
	if e.Point != nil {
		var err error
		if dst, err = appendPoint(append(dst, `,"point":`...), e.Point); err != nil {
			return nil, err
		}
	}
	return append(dst, "}\n"...), nil
}

// AppendFinal appends the stream's final line, {"event":"frontier",
// "frontier":f}, as AppendEvent appends an event line: the bytes
// encoding/json's Encoder writes for it, with Name omitted when empty and
// null for nil Points. Optimize jobs keep the indented Frontier.ToJSON.
func AppendFinal(dst []byte, f *Frontier) ([]byte, error) {
	dst = append(dst, `{"event":"frontier","frontier":{`...)
	if f.Name != "" {
		dst = append(cliutil.AppendJSONString(append(dst, `"name":`...), f.Name), ',')
	}
	dst = cliutil.AppendJSONString(append(dst, `"network":`...), f.Network)
	dst = strconv.AppendInt(append(dst, `,"layer_groups":`...), int64(f.Groups), 10)
	dst = strconv.AppendInt(append(dst, `,"evaluated":`...), int64(f.Evaluated), 10)
	dst = strconv.AppendInt(append(dst, `,"admitted":`...), int64(f.Admitted), 10)
	dst = strconv.AppendInt(append(dst, `,"rejected":`...), int64(f.Rejected), 10)
	dst = strconv.AppendInt(append(dst, `,"evicted":`...), int64(f.Evicted), 10)
	dst = strconv.AppendInt(append(dst, `,"dominated":`...), int64(f.Dominated), 10)
	dst = append(dst, `,"points":`...)
	if f.Points == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range f.Points {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendPoint(dst, &f.Points[i]); err != nil {
				return nil, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, "}}\n"...), nil
}

// appendPoint appends p's JSON object; the arrays are core.Array values,
// which encoding/json writes with their untagged field names.
func appendPoint(dst []byte, p *FrontierPoint) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"id":`...), int64(p.ID), 10)
	dst = append(dst, `,"arrays":`...)
	if p.Arrays == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, a := range p.Arrays {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, `{"Rows":`...), int64(a.Rows), 10)
			dst = strconv.AppendInt(append(dst, `,"Cols":`...), int64(a.Cols), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"chips":`...), int64(p.Chips), 10)
	dst = strconv.AppendBool(append(dst, `,"gated":`...), p.Gated)
	dst = strconv.AppendInt(append(dst, `,"metrics":{"cycles":`...), p.Metrics.Cycles, 10)
	dst, err := compile.AppendJSONFloat(append(dst, `,"energy_j":`...), p.Metrics.EnergyJ)
	if err != nil {
		return nil, err
	}
	dst = strconv.AppendInt(append(dst, `,"area_cells":`...), p.Metrics.AreaCells, 10)
	return append(dst, "}}"...), nil
}
