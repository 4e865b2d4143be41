package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"ssnkit/internal/ssn"
)

// PointEncoder appends the canonical NDJSON record of one sweep point,
//
//	{"values":{…},"vmax":…,"case":…,"case_code":…,"depth":…}
//	{"values":{…},"depth":…,"error":{…}}             (failed point)
//
// straight into a caller's buffer. The bytes are exactly what
// encoding/json (SetEscapeHTML(false)) writes for the record struct
//
//	struct {
//		Values   map[string]float64 `json:"values"`
//		VMax     float64            `json:"vmax,omitempty"`
//		Case     string             `json:"case,omitempty"`
//		CaseCode int                `json:"case_code,omitempty"`
//		Depth    int                `json:"depth,omitempty"`
//		Error    any                `json:"error,omitempty"`
//	}
//
// with Values keyed by axis name — the resolved DriverCount on the n axis
// of a valid point, the raw axis value otherwise — so every stream of sweep
// points (/v1/sweep, dist shards) shares one spelling. The values keys are
// sorted and quoted once per grid; a valid point costs no reflection and
// no allocation. The per-point error sub-record, rare and caller-shaped,
// goes through AppendJSON.
//
// A base-grid point (Index != nil) repeats its axis values across the
// grid, so the encoder keeps their spelled bytes in a memo keyed by grid
// index: one slot per axis, except the last (fastest) axis, which gets
// one slot per index up to memoSlots and wraps above that. A slot is
// reused only when it holds the same float64 bits, so a failed point's
// raw n beside a valid point's resolved N, or -0 beside 0, is spelled
// afresh; a non-finite value is refused and leaves the slot as it was.
// Refined points (Index == nil) are always spelled afresh.
//
// A PointEncoder is not safe for concurrent use; sweep sinks are serial.
type PointEncoder struct {
	values    []valueField // in sorted-name order
	errRecord func(error) any
}

// valueField is one key of the values object.
type valueField struct {
	axis int        // index into Grid.Axes, Point.Index and Point.Values
	key  []byte     // `"name":`, comma-led after the first key
	isN  bool       // the n axis: a valid point reports its resolved N
	memo []memoSlot // spelled values by grid index; a power-of-two length
}

// memoSlots bounds the memo of the fastest axis, so an axis of a million
// points costs the same 40 KiB as one of a thousand.
const memoSlots = 1024

// memoSlot holds the spelling of one axis value. The longest spelling
// AppendJSONFloat writes is 25 bytes (-0.0000012345678901234567), so b
// fills the slot out to 40 bytes.
type memoSlot struct {
	bits uint64
	n    uint8 // len of the spelling in b; 0 marks an empty slot
	b    [31]byte
}

// NewPointEncoder builds the encoder for points of a grid with these axes
// (distinct names, as Grid.Validate requires). errRecord shapes a point's
// error into the caller's wire error object.
func NewPointEncoder(axes []Axis, errRecord func(error) any) *PointEncoder {
	e := &PointEncoder{errRecord: errRecord}
	for k, ax := range axes {
		slots := 1 // an outer axis holds one value for a whole row
		if k == len(axes)-1 {
			for slots < min(ax.Points, memoSlots) {
				slots *= 2
			}
		}
		e.values = append(e.values, valueField{axis: k, isN: ax.Name == AxisN, memo: make([]memoSlot, slots)})
	}
	slices.SortFunc(e.values, func(a, b valueField) int {
		return strings.Compare(axes[a.axis].Name, axes[b.axis].Name)
	})
	for i := range e.values {
		var key []byte
		if i > 0 {
			key = append(key, ',')
		}
		key, _ = AppendJSON(key, axes[e.values[i].axis].Name) // a string always encodes
		e.values[i].key = append(key, ':')
	}
	return e
}

// Append appends pt's record and its newline to dst. On error — a
// non-finite value, which encoding/json refuses with the same
// *json.UnsupportedValueError — dst comes back with nothing appended.
func (e *PointEncoder) Append(dst []byte, pt *Point) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"values":{`...)
	var err error
	for i := range e.values {
		f := &e.values[i]
		v := pt.Values[f.axis]
		if f.isN && pt.Err == nil {
			v = float64(DriverCount(v)) // the resolved (rounded) driver count
		}
		dst = append(dst, f.key...)
		if pt.Index != nil {
			dst, err = f.appendMemo(dst, pt.Index[f.axis], v)
		} else {
			dst, err = AppendJSONFloat(dst, v)
		}
		if err != nil {
			return dst[:start], err
		}
	}
	dst = append(dst, '}')
	if pt.Err == nil {
		if pt.VMax != 0 {
			dst = append(dst, `,"vmax":`...)
			if dst, err = AppendJSONFloat(dst, pt.VMax); err != nil {
				return dst[:start], err
			}
		}
		dst = AppendCase(dst, pt.Case)
	}
	if pt.Depth != 0 {
		dst = append(dst, `,"depth":`...)
		dst = strconv.AppendInt(dst, int64(pt.Depth), 10)
	}
	if pt.Err != nil {
		dst = append(dst, `,"error":`...)
		if dst, err = AppendJSON(dst, e.errRecord(pt.Err)); err != nil {
			return dst[:start], err
		}
	}
	return append(dst, "}\n"...), nil
}

// appendMemo appends v, the value at grid index idx of f's axis, from
// its memo slot when the slot holds v's bits, and spells it into the slot
// otherwise.
func (f *valueField) appendMemo(dst []byte, idx int, v float64) ([]byte, error) {
	s := &f.memo[idx&(len(f.memo)-1)]
	bits := math.Float64bits(v)
	if s.n != 0 && s.bits == bits {
		return append(dst, s.b[:s.n]...), nil
	}
	start := len(dst)
	dst, err := AppendJSONFloat(dst, v)
	if err == nil {
		s.bits, s.n = bits, uint8(copy(s.b[:], dst[start:]))
	}
	return dst, err
}

// AppendJSON appends v as encoding/json spells it with HTML escaping off
// and without Encode's newline: the one way into encoding/json for the
// records and sub-records that no appender spells (error records,
// summaries, off-table cases). On error dst comes back unchanged.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return dst, err
	}
	out := buf.Bytes()
	return out[:len(out)-1], nil
}

// AppendCase appends the comma-led case and case_code fields of a record
// whose case is c, as encoding/json spells them: "case" is c.String() and
// "case_code" is c, omitted when 0. The Table 1 cases come pre-quoted.
func AppendCase(dst []byte, c ssn.Case) []byte {
	if c >= ssn.OverDamped && c <= ssn.UnderDampedBoundary {
		return append(dst, caseFields[c]...)
	}
	return appendOffTableCase(dst, c)
}

// appendOffTableCase is AppendCase for a case outside the table, kept
// apart so that AppendCase inlines into the record appenders.
func appendOffTableCase(dst []byte, c ssn.Case) []byte {
	dst = append(dst, `,"case":`...)
	dst, _ = AppendJSON(dst, c.String()) // a string always encodes
	if c != 0 {
		dst = append(dst, `,"case_code":`...)
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	return dst
}

// caseFields holds the pre-quoted case and case_code fields of the
// Table 1 cases, indexed by case code.
var caseFields = func() (t [ssn.UnderDampedBoundary + 1][]byte) {
	for c := ssn.OverDamped; c <= ssn.UnderDampedBoundary; c++ {
		q, _ := AppendJSON(nil, c.String())
		t[c] = []byte(`,"case":` + string(q) + `,"case_code":` + strconv.Itoa(int(c)))
	}
	return t
}()

// AppendJSONFloat appends f as encoding/json spells a float64: the
// shortest round-trip decimal, in exponent form for |f| < 1e-6 or
// |f| >= 1e21 with a one-digit negative exponent unpadded (1e-7, not
// 1e-07), and -0 kept. NaN and ±Inf are refused with the error
// encoding/json returns, and dst comes back unchanged. Normal values take
// the Schubfach kernel (ftoa.go), which is derived for normal
// significands; zero and subnormals take strconv.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	bits := math.Float64bits(f)
	exp := int(bits>>52) & 0x7ff
	switch exp {
	case 0x7ff:
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	case 0: // every subnormal is below 1e-6, so 'e', and its exponent needs no trim
		if f == 0 {
			return strconv.AppendFloat(dst, f, 'f', -1, 64), nil
		}
		return strconv.AppendFloat(dst, f, 'e', -1, 64), nil
	}
	if bits>>63 != 0 {
		dst = append(dst, '-')
	}
	m, e := shortestDecimal(bits&(cMin-1)|cMin, exp-1075)
	abs := math.Abs(f)
	return appendDecimal(dst, m, e, abs < 1e-6 || abs >= 1e21), nil
}
