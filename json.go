package explain3d

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"

	"explain3d/internal/core"
)

// AppendResultJSON appends the JSON body of ConvertResult(res, withSummary)
// to dst: exactly the bytes json.Marshal writes for that Result, rendered
// straight from the canonical relations' columns without building it. A
// NaN or infinite float fails with the *json.UnsupportedValueError
// json.Marshal returns for it.
func AppendResultJSON(dst []byte, res *core.Result, withSummary bool) ([]byte, error) {
	var summary []string
	if withSummary {
		summary = summarizeResult(res)
	}
	return appendResultJSON(dst, res, summary)
}

// appendResultJSON writes the Result fields in declaration order; a nil
// slice renders as null, as json.Marshal renders it.
func appendResultJSON(dst []byte, res *core.Result, summary []string) ([]byte, error) {
	kw := [2]core.KeyWriter{res.T1.KeyWriter(), res.T2.KeyWriter()}
	impacts := [2][]float64{res.T1.Impacts, res.T2.Impacts}
	e := res.Expl
	w := &jsonWriter{}
	r1, r2 := res.Prov1.Result.String(), res.Prov2.Result.String()
	dst = slices.Grow(dst, w.estimate(res, kw, summary)+len(r1)+len(r2))

	dst = append(dst, `{"Result1":`...)
	dst = appendJSONString(dst, r1)
	dst = append(dst, `,"Result2":`...)
	dst = appendJSONString(dst, r2)

	dst = append(dst, `,"Explanations":`...)
	if len(e.Prov)+len(e.Val) == 0 {
		dst = append(dst, "null"...)
	} else {
		sep := byte('[')
		for _, pe := range e.Prov {
			dst = w.appendExplanation(append(dst, sep), kw[pe.Side], MissingTuple, int(pe.Side)+1, pe.Tuple, impacts[pe.Side][pe.Tuple], 0)
			sep = ','
		}
		for _, ve := range e.Val {
			dst = w.appendExplanation(append(dst, sep), kw[ve.Side], WrongValue, int(ve.Side)+1, ve.Tuple, impacts[ve.Side][ve.Tuple], ve.NewImpact)
			sep = ','
		}
		dst = append(dst, ']')
	}

	dst = append(dst, `,"Evidence":`...)
	if len(e.Evidence) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, ev := range e.Evidence {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = w.appendPair(dst, kw, ev)
		}
		dst = append(dst, ']')
	}

	dst = append(dst, `,"Summary":`...)
	if summary == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, line := range summary {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, line)
		}
		dst = append(dst, ']')
	}

	dst = append(dst, `,"TimedOut":`...)
	dst = strconv.AppendBool(dst, res.Stats.TimedOut)
	dst = append(dst, '}')
	if w.err != nil {
		return nil, w.err
	}
	return dst, nil
}

// jsonWriter holds one rendering's float cache, key scratch and first
// error.
type jsonWriter struct {
	err error
	// raw holds a key that needs escaping while it is escaped back into
	// the body.
	raw []byte
	// floats caches formatted floats by their bits: direct-mapped, an
	// entry with n == 0 is empty. Evidence probabilities take few
	// distinct values, so most formats are a lookup.
	floats [256]struct {
		bits uint64
		n    uint8
		b    [32]byte
	}
}

// appendExplanation appends one Explanation object. The kinds are plain
// ASCII words, so they need no escaping.
func (w *jsonWriter) appendExplanation(dst []byte, kw core.KeyWriter, kind ExplanationKind, query, tuple int, impact, newImpact float64) []byte {
	dst = append(dst, `{"Kind":"`...)
	dst = append(dst, kind...)
	dst = append(dst, `","Query":`...)
	dst = strconv.AppendInt(dst, int64(query), 10)
	dst = append(dst, `,"Tuple":"`...)
	dst = w.appendKey(dst, kw, tuple)
	dst = append(dst, `","Impact":`...)
	dst = w.appendFloat(dst, impact)
	dst = append(dst, `,"NewImpact":`...)
	dst = w.appendFloat(dst, newImpact)
	return append(dst, '}')
}

// appendKey appends tuple g's display key as JSON string content. The key
// is rendered raw into dst and left there when it needs no escaping, the
// common case; otherwise it is escaped from a copy.
func (w *jsonWriter) appendKey(dst []byte, kw core.KeyWriter, g int) []byte {
	start := len(dst)
	dst = kw.AppendKey(dst, g)
	if jsonSafeRun(dst[start:]) {
		return dst
	}
	w.raw = append(w.raw[:0], dst[start:]...)
	return appendJSONEscaped(dst[:start], w.raw)
}

// appendPair appends one evidence pair as a MatchedPair object.
func (w *jsonWriter) appendPair(dst []byte, kw [2]core.KeyWriter, ev core.Evidence) []byte {
	dst = append(dst, `{"Tuple1":"`...)
	dst = w.appendKey(dst, kw[0], ev.L)
	dst = append(dst, `","Tuple2":"`...)
	dst = w.appendKey(dst, kw[1], ev.R)
	dst = append(dst, `","Probability":`...)
	dst = w.appendFloat(dst, ev.P)
	return append(dst, '}')
}

// estimateSample is how many evidence pairs estimate renders to size the
// buffer.
const estimateSample = 64

// estimate returns the body's expected length apart from the two query
// results: evidence pairs sampled evenly and rendered into scratch set the
// per-pair size, explanations count a pair's size plus their fixed text,
// and the summary lines count their own length. It overshoots by 1/32 so a
// typical body grows no more than once.
func (w *jsonWriter) estimate(res *core.Result, kw [2]core.KeyWriter, summary []string) int {
	e := res.Expl
	n := 128
	for _, line := range summary {
		n += len(line) + 3
	}
	perPair := 64
	if k := min(len(e.Evidence), estimateSample); k > 0 {
		var scratch []byte
		for i := 0; i < k; i++ {
			scratch = w.appendPair(scratch, kw, e.Evidence[i*len(e.Evidence)/k])
		}
		perPair = len(scratch)/k + 1
		w.err = nil // the body reports its first error in field order
	}
	n += len(e.Evidence) * perPair
	n += (len(e.Prov) + len(e.Val)) * (perPair + 40)
	return n + n/32
}

// appendFloat appends f as json.Marshal formats a float64: like strconv's
// shortest 'f' format, but exponent form below 1e-6 and from 1e21, with
// the exponent's leading zero dropped (e-07 → e-7). NaN and ±Inf record an
// error and append nothing.
func (w *jsonWriter) appendFloat(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	ent := &w.floats[(bits*0x9E3779B97F4A7C15)>>56]
	if ent.n > 0 && ent.bits == bits {
		return append(dst, ent.b[:ent.n]...)
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return dst
	}
	start := len(dst)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n-start >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	ent.bits, ent.n = bits, uint8(copy(ent.b[:], dst[start:]))
	return dst
}

// appendJSONString appends s as a quoted JSON string.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := len(dst)
	dst = append(dst, s...)
	if !jsonSafeRun(dst[start:]) {
		dst = appendJSONEscaped(dst[:start], s)
	}
	return append(dst, '"')
}

// jsonSafe marks the ASCII bytes json.Marshal copies unescaped: every
// printable byte but '"', '\\', '<', '>' and '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// jsonSafeRun reports whether json.Marshal copies every byte of b
// unescaped.
func jsonSafeRun(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf || !jsonSafe[c] {
			return false
		}
	}
	return true
}

const hexDigits = "0123456789abcdef"

// appendJSONEscaped appends s's JSON string content as json.Marshal escapes
// it: '"' and '\\' backslashed, \b \f \n \r \t by name, other control bytes
// and the HTML characters < > & as \u00XX, U+2028 and U+2029 as \u2028
// and \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendJSONEscaped[S string | []byte](dst []byte, s S) []byte {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// A string of at most utf8.UTFMax bytes converts on the stack.
		c, size := utf8.DecodeRuneInString(string(s[i:min(len(s), i+utf8.UTFMax)]))
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(dst, s[start:]...)
}
