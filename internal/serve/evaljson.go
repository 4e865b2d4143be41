package serve

import (
	"bytes"
	"strconv"

	"ssnkit/internal/device"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/ssn"
	"ssnkit/internal/sweep"
)

// The /v1/maxssn JSON wire without reflection: scanMaxSSNRequest decodes
// the canonical request forms and the EvalResult appenders spell the
// replies. Both are held to encoding/json: a scanned request is what
// encoding/json decodes from the same bytes (FuzzMaxSSNDecode), and an
// appended reply is encoding/json's bytes (TestEvalReplyMatchesEncodingJSON).

// scan decodes body through scanMaxSSNRequest, for decodeJSON.
func (q *maxSSNRequest) scan(body []byte) bool {
	req, ok := scanMaxSSNRequest(body)
	if ok {
		*q = req
	}
	return ok
}

// scanMaxSSNRequest decodes the canonical subset of /v1/maxssn bodies,
//
//	{"items":[item,…]}   or   {"params":item}
//
// where each item is an object of exact lowercase EvalItem keys (dev's
// k, v0 and a included), each at most once; strings are escape-free
// ASCII, numbers follow the JSON grammar (integer grammar for n and pads)
// and parse as encoding/json parses them, and booleans are true or false.
// JSON whitespace may sit between tokens and after the value. Anything
// else — null, an escape, a case-folded, unknown or repeated key, the
// legacy inline form, a syntax, type or range error — reports false, and
// encoding/json decodes the body instead. When ok, req is exactly what
// encoding/json decodes into a zero maxSSNRequest.
func scanMaxSSNRequest(body []byte) (req maxSSNRequest, ok bool) {
	s := jsonScanner{b: body}
	if !s.lit('{') {
		return req, false
	}
	key, ok := s.str()
	if !ok || !s.lit(':') {
		return req, false
	}
	switch string(key) {
	case "items":
		if !s.lit('[') {
			return req, false
		}
		// Every item opens a brace, so the braces bound the batch from
		// above (dev objects, and braces inside strings, count too); a
		// batch past maxItemsPrealloc grows by append.
		req.Items = make([]EvalItem, 0, min(bytes.Count(body, []byte{'{'}), maxItemsPrealloc))
		if !s.lit(']') {
			for {
				req.Items = append(req.Items, EvalItem{})
				if !s.item(&req.Items[len(req.Items)-1]) {
					return maxSSNRequest{}, false
				}
				if s.lit(',') {
					continue
				}
				if !s.lit(']') {
					return maxSSNRequest{}, false
				}
				break
			}
		}
	case "params":
		req.Params = new(EvalItem)
		if !s.item(req.Params) {
			return maxSSNRequest{}, false
		}
	default:
		return req, false
	}
	if !s.lit('}') {
		return maxSSNRequest{}, false
	}
	s.skipSpace()
	if s.i != len(s.b) {
		return maxSSNRequest{}, false
	}
	return req, true
}

// maxItemsPrealloc caps the items a scan allocates before it has seen
// them: 1024 items are 144 KiB, whatever the body claims.
const maxItemsPrealloc = 1024

// jsonScanner walks a body for scanMaxSSNRequest. Every method skips the
// whitespace before its token and reports false, leaving the position
// anywhere, when the token is not there.
type jsonScanner struct {
	b []byte
	i int
}

func (s *jsonScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// lit consumes the one-byte token c.
func (s *jsonScanner) lit(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes an escape-free ASCII string and returns its contents.
func (s *jsonScanner) str() ([]byte, bool) {
	s.skipSpace()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	start := s.i + 1
	for j := start; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			s.i = j + 1
			return s.b[start:j], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// name consumes a string, interning the process, corner and package names.
func (s *jsonScanner) name() (string, bool) {
	b, ok := s.str()
	if !ok {
		return "", false
	}
	if n, hit := knownNames[string(b)]; hit {
		return n, true
	}
	return string(b), true
}

// knownNames interns the names a request usually spells, so scanning
// them allocates no string.
var knownNames = func() map[string]string {
	m := map[string]string{}
	add := func(n string) { m[n] = n }
	for _, p := range device.Processes() {
		add(p.Name)
	}
	for _, c := range []device.Corner{device.TT, device.SS, device.FF} {
		add(c.String())
	}
	for _, p := range pkgmodel.Catalog() {
		add(p.Name)
	}
	return m
}()

// number consumes a JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// without its fraction and exponent when intOnly is set.
func (s *jsonScanner) number(intOnly bool) ([]byte, bool) {
	s.skipSpace()
	b, j := s.b, s.i
	digits := func() bool {
		d := j
		for j < len(b) && b[j] >= '0' && b[j] <= '9' {
			j++
		}
		return j > d
	}
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case !digits():
		return nil, false
	}
	if !intOnly {
		if j < len(b) && b[j] == '.' {
			j++
			if !digits() {
				return nil, false
			}
		}
		if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
			j++
			if j < len(b) && (b[j] == '+' || b[j] == '-') {
				j++
			}
			if !digits() {
				return nil, false
			}
		}
	}
	num := b[s.i:j]
	s.i = j
	return num, true
}

func (s *jsonScanner) float() (float64, bool) {
	num, ok := s.number(false)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, err == nil
}

func (s *jsonScanner) integer() (int, bool) {
	num, ok := s.number(true)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	return int(n), err == nil
}

func (s *jsonScanner) boolean() (bool, bool) {
	s.skipSpace()
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// object consumes {"key":value,…}, handing each key to field, which
// consumes the value and reports false for a key it does not take. Keys
// are told apart by field's own bookkeeping (see item and dev).
func (s *jsonScanner) object(field func(key []byte) bool) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.lit(':') || !field(key) {
			return false
		}
		if !s.lit(',') {
			return s.lit('}')
		}
	}
}

// item consumes one EvalItem object into it.
func (s *jsonScanner) item(it *EvalItem) bool {
	var seen uint32
	return s.object(func(key []byte) bool {
		f := itemKey(key)
		if f < 0 || seen&(1<<f) != 0 {
			return false
		}
		seen |= 1 << f
		ok := false
		switch f {
		case keyProcess:
			it.Process, ok = s.name()
		case keyCorner:
			it.Corner, ok = s.name()
		case keyRail:
			it.Rail, ok = s.boolean()
		case keySize:
			it.Size, ok = s.float()
		case keyDev:
			it.Dev = new(DeviceSpec)
			ok = s.dev(it.Dev)
		case keyVdd:
			it.Vdd, ok = s.float()
		case keyN:
			it.N, ok = s.integer()
		case keyPackage:
			it.Package, ok = s.name()
		case keyPads:
			it.Pads, ok = s.integer()
		case keyL:
			it.L = new(float64)
			*it.L, ok = s.float()
		case keyC:
			it.C = new(float64)
			*it.C, ok = s.float()
		case keySlope:
			it.Slope, ok = s.float()
		case keyRiseTime:
			it.RiseTime, ok = s.float()
		case keySensitivity:
			it.Sensitivity, ok = s.boolean()
		}
		return ok
	})
}

// dev consumes one DeviceSpec object into d.
func (s *jsonScanner) dev(d *DeviceSpec) bool {
	var seen uint8
	return s.object(func(key []byte) bool {
		var dst *float64
		var bit uint8
		switch string(key) {
		case "k":
			dst, bit = &d.K, 1
		case "v0":
			dst, bit = &d.V0, 2
		case "a":
			dst, bit = &d.A, 4
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		ok := false
		*dst, ok = s.float()
		return ok
	})
}

// The EvalItem keys, as bit positions of item's seen set.
const (
	keyProcess = iota
	keyCorner
	keyRail
	keySize
	keyDev
	keyVdd
	keyN
	keyPackage
	keyPads
	keyL
	keyC
	keySlope
	keyRiseTime
	keySensitivity
)

// itemKey maps an exact EvalItem JSON key to its key constant, or -1.
func itemKey(key []byte) int {
	switch string(key) {
	case "process":
		return keyProcess
	case "corner":
		return keyCorner
	case "rail":
		return keyRail
	case "size":
		return keySize
	case "dev":
		return keyDev
	case "vdd":
		return keyVdd
	case "n":
		return keyN
	case "package":
		return keyPackage
	case "pads":
		return keyPads
	case "l":
		return keyL
	case "c":
		return keyC
	case "slope":
		return keySlope
	case "rise_time":
		return keyRiseTime
	case "sensitivity":
		return keySensitivity
	}
	return -1
}

// appendJSON appends b's {"count":…,"results":[…]} envelope, as writeJSON
// sends it.
func (b maxSSNBatchResponse) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"count":`...)
	dst = strconv.AppendInt(dst, int64(b.Count), 10)
	if b.Results == nil {
		return append(dst, `,"results":null}`...), nil
	}
	dst = append(dst, `,"results":[`...)
	for i := range b.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = b.Results[i].appendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// appendJSON appends r's object. Floats go through sweep.AppendJSONFloat,
// the module's one encoding/json float speller; a Table 1 case comes
// pre-quoted from resultCaseFields; the error sub-record, rare and
// free-form, stays on encoding/json.
func (r EvalResult) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, `,"vmax":`...)
	var err error
	if dst, err = sweep.AppendJSONFloat(dst, r.VMax); err != nil {
		return dst, err
	}
	if c := ssn.Case(r.CaseCode); c >= ssn.OverDamped && c <= ssn.UnderDampedBoundary && r.Case == c.String() {
		dst = append(dst, resultCaseFields[c]...)
	} else {
		if r.Case != "" {
			dst = append(dst, `,"case":`...)
			if dst, err = appendJSONValue(dst, r.Case); err != nil {
				return dst, err
			}
		}
		if r.CaseCode != 0 {
			dst = append(dst, `,"case_code":`...)
			dst = strconv.AppendInt(dst, int64(r.CaseCode), 10)
		}
	}
	if r.Beta != 0 {
		dst = append(dst, `,"beta":`...)
		if dst, err = sweep.AppendJSONFloat(dst, r.Beta); err != nil {
			return dst, err
		}
	}
	if r.Zeta != nil {
		dst = append(dst, `,"zeta":`...)
		if dst, err = sweep.AppendJSONFloat(dst, *r.Zeta); err != nil {
			return dst, err
		}
	}
	if r.TMax != 0 {
		dst = append(dst, `,"t_max":`...)
		if dst, err = sweep.AppendJSONFloat(dst, r.TMax); err != nil {
			return dst, err
		}
	}
	if s := r.Sens; s != nil {
		for _, f := range [...]struct {
			key string
			v   float64
		}{
			{`,"sensitivity":{"dvmax_dn":`, s.DVdN}, {`,"dvmax_dl":`, s.DVdL},
			{`,"dvmax_dslope":`, s.DVdS}, {`,"dvmax_dc":`, s.DVdC},
			{`,"rel_n":`, s.RelN}, {`,"rel_l":`, s.RelL},
			{`,"rel_slope":`, s.RelS}, {`,"rel_c":`, s.RelC},
		} {
			dst = append(dst, f.key...)
			if dst, err = sweep.AppendJSONFloat(dst, f.v); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	}
	if r.Error != nil {
		dst = append(dst, `,"error":`...)
		if dst, err = appendJSONValue(dst, r.Error); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// resultCaseFields holds the pre-quoted case and case_code fields of the
// Table 1 cases, indexed by case code.
var resultCaseFields = func() (t [ssn.UnderDampedBoundary + 1][]byte) {
	for c := ssn.OverDamped; c <= ssn.UnderDampedBoundary; c++ {
		q, _ := appendJSONValue(nil, c.String()) // a string always encodes
		t[c] = []byte(`,"case":` + string(q) + `,"case_code":` + strconv.Itoa(int(c)))
	}
	return t
}()

// appendJSONValue appends v as encoding/json spells it without HTML
// escaping and without Encode's newline.
func appendJSONValue(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	if err := encodeJSON(buf, v); err != nil {
		return dst, err
	}
	out := buf.Bytes()
	return out[:len(out)-1], nil
}
