package cliutil

import (
	"encoding/json"
	"unicode/utf8"
)

// AppendJSONString appends s as a JSON string, escaped as encoding/json
// escapes it by default (HTML-safe). It is the one copy of that rule,
// shared by the plan codec, the optimize stream and the network spec.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < ' ' || b >= utf8.RuneSelf || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
