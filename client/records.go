package client

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"
)

// plainRetrieveResult is RetrieveResult without its UnmarshalJSON
// method: what the fast decoder falls back to, and the reference it
// must agree with.
type plainRetrieveResult RetrieveResult

// UnmarshalJSON decodes an fx.retrieve result in a constant number of
// allocations, whatever its record count: every record value that needs
// no unescaping is a substring of one backing string, and every record
// a capped window of one []string. Values that carry escapes or invalid
// UTF-8 are unquoted by encoding/json one at a time.
//
// Any input outside the shape the gate writes (unknown or differently
// cased keys, a number where a string belongs, trailing bytes) is
// handed to encoding/json whole, so the method accepts, rejects and
// decodes exactly what a plain encoding/json decode does.
func (r *RetrieveResult) UnmarshalJSON(data []byte) error {
	s := scanner{data: data}
	if v, ok := s.retrieveResult(*r); ok {
		*r = v
		return nil
	}
	return json.Unmarshal(data, (*plainRetrieveResult)(r))
}

// envelope validates a response frame and splits it into the bytes of
// its result member and its decoded error member. ok is false when data
// is not a JSON object, or has a jsonrpc member that is no string or an
// error member that is no error object. Member names are matched exactly, as JSON-RPC 2.0 specifies,
// and a repeated member's last value wins. The result's decoder then
// reads validated bytes.
func envelope(data []byte) (result []byte, eobj *ErrorObject, ok bool) {
	if !json.Valid(data) {
		return nil, nil, false
	}
	s := scanner{data: data}
	if !s.eat('{') {
		return nil, nil, false
	}
	for !s.eat('}') {
		s.eat(',')
		key, _, _ := s.str()
		s.eat(':')
		v := s.member()
		switch string(key) {
		case `"jsonrpc"`:
			if v[0] != '"' && string(v) != "null" {
				return nil, nil, false
			}
		case `"result"`:
			result = v
		case `"error"`:
			eobj = nil
			if string(v) != "null" {
				eobj = new(ErrorObject)
				if json.Unmarshal(v, eobj) != nil {
					return nil, nil, false
				}
			}
		}
	}
	return result, eobj, true
}

// scanner is a cursor over JSON bytes. Its methods report ok=false on
// anything they do not handle, valid JSON or not; the caller then falls
// back to encoding/json.
type scanner struct {
	data []byte
	i    int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c, after any whitespace, if it comes next.
func (s *scanner) eat(c byte) bool {
	s.skipSpace()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal consumes the keyword lit (null, true, false) if it comes next.
func (s *scanner) literal(lit string) bool {
	s.skipSpace()
	if bytes.HasPrefix(s.data[s.i:], []byte(lit)) {
		s.i += len(lit)
		return true
	}
	return false
}

// str consumes a string token, quotes included. plain reports that its
// body is the decoded value as is: no escapes, valid UTF-8.
func (s *scanner) str() (tok []byte, plain, ok bool) {
	if !s.eat('"') {
		return nil, false, false
	}
	start := s.i - 1
	escaped, ascii := false, true
	for s.i < len(s.data) {
		switch c := s.data[s.i]; {
		case c == '"':
			s.i++
			tok = s.data[start:s.i]
			plain = !escaped && (ascii || utf8.Valid(tok[1:len(tok)-1]))
			return tok, plain, true
		case c == '\\':
			escaped = true
			s.i += 2
		case c < ' ':
			return nil, false, false
		default:
			ascii = ascii && c < utf8.RuneSelf
			s.i++
		}
	}
	return nil, false, false
}

// text consumes a string token and returns its value; the API version
// string costs no allocation.
func (s *scanner) text() (string, bool) {
	tok, plain, ok := s.str()
	if !ok {
		return "", false
	}
	if plain {
		if body := tok[1 : len(tok)-1]; string(body) != APIVersion {
			return string(body), true
		}
		return APIVersion, true
	}
	var v string
	return v, json.Unmarshal(tok, &v) == nil
}

// number consumes a JSON integer token: -?(0|[1-9][0-9]*). Fractions
// and exponents are left to encoding/json, which rejects them for the
// integer fields of a result.
func (s *scanner) number() ([]byte, bool) {
	s.skipSpace()
	start := s.i
	if s.i < len(s.data) && s.data[s.i] == '-' {
		s.i++
	}
	digits := s.i
	for s.i < len(s.data) && '0' <= s.data[s.i] && s.data[s.i] <= '9' {
		s.i++
	}
	n := s.i - digits
	if n == 0 || (n > 1 && s.data[digits] == '0') {
		return nil, false
	}
	if s.i < len(s.data) {
		if c := s.data[s.i]; c == '.' || c == 'e' || c == 'E' {
			return nil, false
		}
	}
	return s.data[start:s.i], true
}

func (s *scanner) int() (int, bool) {
	tok, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(v), err == nil
}

func (s *scanner) uint64() (uint64, bool) {
	tok, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	return v, err == nil
}

// ints consumes an array of integers into an exact-size slice.
func (s *scanner) ints() ([]int, bool) {
	start := s.i
	n, ok := s.intArray(nil)
	if !ok {
		return nil, false
	}
	s.i = start
	out := make([]int, n)
	_, ok = s.intArray(out)
	return out, ok
}

// intArray consumes an array of integers, counting them and, when dst
// is non-nil, storing them there.
func (s *scanner) intArray(dst []int) (int, bool) {
	if !s.eat('[') {
		return 0, false
	}
	if s.eat(']') {
		return 0, true
	}
	for n := 0; ; {
		v, ok := s.int()
		if !ok {
			return 0, false
		}
		if dst != nil {
			dst[n] = v
		}
		n++
		if s.eat(']') {
			return n, true
		}
		if !s.eat(',') {
			return 0, false
		}
	}
}

// recordsBuf carries one records array through two passes: the first
// counts records, values and plain-value bytes; the second, with fill
// set, carves the records out of allocations of exactly those sizes.
type recordsBuf struct {
	fill       bool
	nrec, nval int
	nbytes     int
	recs       [][]string
	vals       []string
	back       strings.Builder
}

// records consumes a records array: an array of string arrays, each
// possibly null.
func (s *scanner) records() ([][]string, bool) {
	start := s.i
	var rb recordsBuf
	if !s.recordArray(&rb) {
		return nil, false
	}
	s.i = start
	rb.fill = true
	rb.recs = make([][]string, 0, rb.nrec)
	rb.vals = make([]string, 0, rb.nval)
	rb.back.Grow(rb.nbytes)
	if !s.recordArray(&rb) {
		return nil, false
	}
	return rb.recs, true
}

func (s *scanner) recordArray(rb *recordsBuf) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if s.literal("null") {
			rb.nrec++
			if rb.fill {
				rb.recs = append(rb.recs, nil)
			}
		} else if !s.record(rb) {
			return false
		}
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

func (s *scanner) record(rb *recordsBuf) bool {
	if !s.eat('[') {
		return false
	}
	lo := len(rb.vals)
	if !s.eat(']') {
		for {
			if !s.value(rb) {
				return false
			}
			if s.eat(']') {
				break
			}
			if !s.eat(',') {
				return false
			}
		}
	}
	rb.nrec++
	if rb.fill {
		hi := len(rb.vals)
		rb.recs = append(rb.recs, rb.vals[lo:hi:hi])
	}
	return true
}

// value consumes one record value. A plain value is appended to the
// backing string, which was grown to its final size up front, so every
// substring taken from it shares one array.
func (s *scanner) value(rb *recordsBuf) bool {
	tok, plain, ok := s.str()
	if !ok {
		return false
	}
	rb.nval++
	body := tok[1 : len(tok)-1]
	if !rb.fill {
		if plain {
			rb.nbytes += len(body)
		}
		return true
	}
	if plain {
		off := rb.back.Len()
		rb.back.Write(body)
		rb.vals = append(rb.vals, rb.back.String()[off:])
		return true
	}
	var v string
	if json.Unmarshal(tok, &v) != nil {
		return false
	}
	rb.vals = append(rb.vals, v)
	return true
}

// retrieveResult consumes a whole result object (or null) and nothing
// after it, starting from r's current fields like encoding/json does.
func (s *scanner) retrieveResult(r RetrieveResult) (RetrieveResult, bool) {
	if s.literal("null") {
		return r, s.end()
	}
	if !s.eat('{') {
		return r, false
	}
	if s.eat('}') {
		return r, s.end()
	}
	for {
		key, plain, ok := s.str()
		if !ok || !plain || !s.eat(':') {
			return r, false
		}
		if !s.field(&r, string(key[1:len(key)-1])) {
			return r, false
		}
		if s.eat('}') {
			return r, s.end()
		}
		if !s.eat(',') {
			return r, false
		}
	}
}

// field consumes the value of the result member named key. A null
// leaves a scalar as it was and empties a slice, as in encoding/json.
func (s *scanner) field(r *RetrieveResult, key string) bool {
	if s.literal("null") {
		switch key {
		case "records":
			r.Records = nil
		case "device_buckets":
			r.DeviceBuckets = nil
		case "api_version", "largest_response_size", "trace_id", "coalesced", "batch_size":
		default:
			return false
		}
		return true
	}
	var ok bool
	switch key {
	case "api_version":
		r.APIVersion, ok = s.text()
	case "records":
		r.Records, ok = s.records()
	case "device_buckets":
		r.DeviceBuckets, ok = s.ints()
	case "largest_response_size":
		r.LargestResponseSize, ok = s.int()
	case "trace_id":
		r.TraceID, ok = s.uint64()
	case "coalesced":
		if ok = s.literal("true"); ok {
			r.Coalesced = true
		} else if ok = s.literal("false"); ok {
			r.Coalesced = false
		}
	case "batch_size":
		r.BatchSize, ok = s.int()
	}
	return ok
}

// member consumes one value of validated JSON inside an object or
// array, up to the ',', '}' or ']' after it, and returns it.
func (s *scanner) member() []byte {
	s.skipSpace()
	start, depth := s.i, 0
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case '"':
			s.str()
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return bytes.TrimRight(s.data[start:s.i], " \t\r\n")
			}
			depth--
		case ',':
			if depth == 0 {
				return bytes.TrimRight(s.data[start:s.i], " \t\r\n")
			}
		}
		s.i++
	}
	return s.data[start:]
}

// end reports that only whitespace is left.
func (s *scanner) end() bool {
	s.skipSpace()
	return s.i == len(s.data)
}
