package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"

	"repro/internal/cliutil"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/model"
)

// compileRequest is the POST /v1/compile body:
//
//	{
//	  "network": "VGG-13" | {<inline spec, the model.FromJSON format>},
//	  "array":   "512x512" | {"rows": 512, "cols": 512},
//	  "options": {"scheme": "vw", "variant": "full", "arrays": 1,
//	              "gate_peripherals": false}
//	}
//
// "options" and its fields are optional; the defaults compile the full
// VW-SDK search for a single-array chip. Unknown fields anywhere are
// rejected with 400 so typos fail loudly.
type compileRequest struct {
	Network json.RawMessage `json:"network"`
	Array   json.RawMessage `json:"array"`
	Options *requestOptions `json:"options"`
}

// requestOptions is the wire form of compile.Options. Physical plans
// (compile.Options.Plans) are execution artifacts that do not serialize and
// are deliberately not exposed.
type requestOptions struct {
	Scheme          string `json:"scheme"`
	Variant         string `json:"variant"`
	Arrays          int    `json:"arrays"`
	GatePeripherals bool   `json:"gate_peripherals"`
}

// bodyBufPool recycles request-body read buffers across requests; entries
// retain the capacity past bodies grew them to (bounded by MaxBodyBytes).
var bodyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// decodeJSONBody decodes one strict JSON value from the (size-limited)
// request body into dst: unknown fields, trailing garbage and oversized
// bodies are rejected with structured 400/413 errors. The body is read into
// a pooled buffer and decoded from there, so a warm request does not grow a
// fresh decode buffer; json.RawMessage fields copy out of the buffer, which
// is returned to the pool before this function returns.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, maxBody int64, dst any) *httpError {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	bp := bodyBufPool.Get().(*[]byte)
	defer bodyBufPool.Put(bp)
	buf := (*bp)[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			}
			return errorf(http.StatusBadRequest, "read request: %v", err)
		}
	}
	*bp = buf // keep the grown capacity for the next request
	switch err := cliutil.DecodeStrict(buf, dst); {
	case errors.Is(err, cliutil.ErrTrailingData):
		return errorf(http.StatusBadRequest, "parse request: trailing data after JSON body")
	case err != nil:
		return errorf(http.StatusBadRequest, "parse request: %v", err)
	}
	return nil
}

// resolve turns the wire request into the canonical compile.Request.
// Malformed references come back as 422: the body was syntactically valid
// JSON (that was 400's job in decodeJSONBody) but names something that
// cannot be compiled.
func (req *compileRequest) resolve() (compile.Request, *httpError) {
	n, herr := resolveNetworkRef(req.Network)
	if herr != nil {
		return compile.Request{}, herr
	}
	a, herr := resolveArrayRef(req.Array)
	if herr != nil {
		return compile.Request{}, herr
	}
	opts, herr := req.Options.compileOptions()
	if herr != nil {
		return compile.Request{}, herr
	}
	return compile.NewRequest(n, a, opts), nil
}

// resolveNetworkRef resolves a request's network reference through
// model.ResolveSpec: a zoo name string or an inline spec object.
func resolveNetworkRef(raw json.RawMessage) (model.Network, *httpError) {
	if len(bytes.TrimSpace(raw)) == 0 {
		return model.Network{}, errorf(http.StatusUnprocessableEntity,
			`missing "network": give a zoo name (see /v1/networks) or an inline spec object`)
	}
	n, err := model.ResolveSpec(raw)
	if err != nil {
		return model.Network{}, errorf(http.StatusUnprocessableEntity, "%v", err)
	}
	return n, nil
}

// resolveArrayRef parses an array reference through cliutil.ParseArrayRef,
// the parser design spaces share, and reports a bad one as a 422.
func resolveArrayRef(raw json.RawMessage) (core.Array, *httpError) {
	a, err := cliutil.ParseArrayRef(raw)
	if err != nil {
		return core.Array{}, errorf(http.StatusUnprocessableEntity, "%v", err)
	}
	return a, nil
}

// compileOptions maps the wire options onto compile.Options; a nil receiver
// (options omitted) selects the defaults.
func (o *requestOptions) compileOptions() (compile.Options, *httpError) {
	var opts compile.Options
	if o == nil {
		return opts, nil
	}
	var err error
	if opts.Scheme, err = compile.ParseScheme(o.Scheme); err != nil {
		return opts, errorf(http.StatusUnprocessableEntity, "%v", err)
	}
	if opts.Variant, err = compile.ParseVariant(o.Variant); err != nil {
		return opts, errorf(http.StatusUnprocessableEntity, "%v", err)
	}
	if o.Arrays < 0 {
		return opts, errorf(http.StatusUnprocessableEntity, "negative arrays %d", o.Arrays)
	}
	opts.Arrays = o.Arrays
	opts.GatePeripherals = o.GatePeripherals
	return opts, nil
}

// wireOptions maps resolved compile.Options back onto their wire form — the
// inverse of compileOptions, used to rebuild a /v1/compile body for the peer
// hop. Defaulted options collapse to nil so the proxied body is minimal.
// Options with no wire form (Energy, Plans) must be rejected by the caller
// before this point (see proxyBody).
func wireOptions(opts compile.Options) *requestOptions {
	var o requestOptions
	if opts.Scheme != compile.VWSDK {
		o.Scheme = compile.SchemeName(opts.Scheme)
	}
	if opts.Variant != core.VariantFull {
		o.Variant = compile.VariantName(opts.Variant)
	}
	if opts.Arrays > 1 {
		o.Arrays = opts.Arrays
	}
	o.GatePeripherals = opts.GatePeripherals
	if o == (requestOptions{}) {
		return nil
	}
	return &o
}
