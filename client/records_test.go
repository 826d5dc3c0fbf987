package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"unicode/utf8"
)

// answer is an fx.retrieve response frame of n three-field records,
// as the gate writes it.
func answer(t testing.TB, n int) []byte {
	t.Helper()
	res := RetrieveResult{
		APIVersion:          APIVersion,
		DeviceBuckets:       []int{3, 3, 2, 3, 3, 2, 3, 3},
		LargestResponseSize: 3,
		TraceID:             1 << 40,
		Coalesced:           true,
		BatchSize:           4,
	}
	for i := 0; i < n; i++ {
		res.Records = append(res.Records, []string{
			fmt.Sprintf("part-%d", i), fmt.Sprintf("supplier-%d", i%40), fmt.Sprintf("warehouse-%d", i%8),
		})
	}
	return frameOf(t, &res)
}

// frameOf marshals result inside a response frame the way the gate
// does (its bytes are pinned to this encoding by the gate's tests).
func frameOf(t testing.TB, result any) []byte {
	t.Helper()
	raw, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(Response{JSONRPC: "2.0", ID: json.RawMessage("1"), Result: raw})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

var ok200 = &http.Response{StatusCode: http.StatusOK, Header: http.Header{}}

// decodePlain is the reference: encoding/json into the same fields
// without the custom decoder.
func decodePlain(data []byte) (RetrieveResult, error) {
	var v plainRetrieveResult
	err := json.Unmarshal(data, &v)
	return RetrieveResult(v), err
}

func TestRetrieveResultDecodeMatchesEncodingJSON(t *testing.T) {
	for _, in := range []string{
		`{"api_version":"fx/v1","records":[["a","b"],["c","d"]],"device_buckets":[1,0],"largest_response_size":1,"trace_id":7,"coalesced":true,"batch_size":2}`,
		`{"records":[]}`, `{"records":[[]]}`, `{"records":null}`, `{"records":[null,["x"]]}`, `{}`, `null`, ` { } `,
		`{"records":[["\u003cb\u003e\u0026","q\"uote","\ufffd","\u2028"]]}`,
		"{\"records\":[[\"bad\xff\",\"ok\xc3\xa9\"]]}",
		`{"records":[["a", null]]}`, `{"records":[[1]]}`, `{"records":{}}`, `{"records":"x"}`,
		`{"Records":[["a"]]}`, `{"unknown":1,"records":[["a"]]}`, `{"records":[["a"]],"records":null}`,
		`{"device_buckets":[1,null]}`, `{"device_buckets":[1.5]}`, `{"device_buckets":[1e2]}`, `{"device_buckets":[-0]}`,
		`{"largest_response_size":9223372036854775808}`, `{"trace_id":-1}`, `{"trace_id":18446744073709551615}`,
		`{"coalesced":"true"}`, `{"coalesced":null}`, `{"api_version":null}`, `{"api_version":"fx\/v2"}`,
		` {"records" : [ [ "a" , "b" ] ] , "batch_size" : 3 } `,
		`"x"`, `[]`, `7`,
		// Not JSON: encoding/json rejects these before the method runs,
		// so they reach it only by a direct call.
		`{"batch_size":01}`, `{"trace_id":+1}`, `{"records":[["a"]]} x`, `{"records":[["a"]`, `{"coalesced":tru}`,
		"{\"records\":[[\"a\tb\"]]}", `{"records":[["\q"]]}`,
	} {
		want, wantErr := decodePlain([]byte(in))
		var got, direct RetrieveResult
		err := json.Unmarshal([]byte(in), &got)
		directErr := direct.UnmarshalJSON([]byte(in))
		if (err == nil) != (wantErr == nil) || (directErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: errors %v / %v, encoding/json says %v", in, err, directErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) || (wantErr == nil && !reflect.DeepEqual(direct, want)) {
			t.Fatalf("%s:\n got %#v\ndirect %#v\nwant %#v", in, got, direct, want)
		}
	}
}

// TestRecordsShareOneBacking pins the layout RetrieveResult.Records
// documents: one []string under every record, each record capped so an
// append copies instead of overwriting its neighbour.
func TestRecordsShareOneBacking(t *testing.T) {
	var res RetrieveResult
	if err := decodeResponse(ok200, answer(t, 30), &res); err != nil {
		t.Fatal(err)
	}
	width := reflect.TypeOf("").Size()
	for i, rec := range res.Records {
		if cap(rec) != len(rec) {
			t.Fatalf("record %d: cap %d, len %d", i, cap(rec), len(rec))
		}
		if i == 0 {
			continue
		}
		prev := res.Records[i-1]
		if reflect.ValueOf(rec).Pointer() != reflect.ValueOf(prev).Pointer()+uintptr(len(prev))*width {
			t.Fatalf("record %d does not follow record %d in one array", i, i-1)
		}
	}
	grown := append(res.Records[0], "extra")
	if res.Records[1][0] != "part-1" || grown[3] != "extra" {
		t.Fatal("append to a record overwrote the next one")
	}
}

func TestRetrieveResultDecodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not budgets under -race")
	}
	const budget = 8
	measure := func(n int) float64 {
		body := answer(t, n)
		return testing.AllocsPerRun(50, func() {
			var res RetrieveResult
			if err := decodeResponse(ok200, body, &res); err != nil || len(res.Records) != n {
				t.Fatalf("decode: %v, %d records", err, len(res.Records))
			}
		})
	}
	small, large := measure(30), measure(300)
	t.Logf("decode: %.0f allocs for 30 records, %.0f for 300 (budget %d)", small, large, budget)
	if small != large || large > budget {
		t.Fatalf("decode allocates %.0f for 30 records and %.0f for 300, want one constant <= %d", small, large, budget)
	}
}

// splitRecords cuts fuzz bytes into records at 0x1e and values at
// 0x1f.
func splitRecords(data []byte) [][]string {
	var recs [][]string
	for _, r := range bytes.Split(data, []byte{0x1e}) {
		var rec []string
		for _, v := range bytes.Split(r, []byte{0x1f}) {
			rec = append(rec, string(v))
		}
		recs = append(recs, rec)
	}
	return recs
}

func FuzzRetrieveResultDecode(f *testing.F) {
	f.Add([]byte(`{"api_version":"fx/v1","records":[["a","b"]],"device_buckets":[1],"largest_response_size":1}`))
	f.Add([]byte(`[["<b>&amp;</b>","q\"uote"],null,[],["\u2028\ud800"]]`))
	f.Add([]byte("<a&b>\x1fquo\"te\x1f\\back\x1eline\u2028sep\x1fbad\xff\xc3\x1f\x01ctl"))
	f.Add([]byte(` {"records" : [ [ "a" ] ] , "trace_id" : 18446744073709551615 } `))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Any bytes, as a whole result and as its records member: the
		// decoder agrees with encoding/json, through json.Unmarshal and
		// called directly on unvalidated input.
		for _, in := range [][]byte{data, append(append([]byte(`{"records":`), data...), '}')} {
			want, wantErr := decodePlain(in)
			var got, direct RetrieveResult
			err := json.Unmarshal(in, &got)
			directErr := direct.UnmarshalJSON(in)
			if (err == nil) != (wantErr == nil) || (directErr == nil) != (wantErr == nil) {
				t.Fatalf("%q: errors %v / %v, encoding/json says %v", in, err, directErr, wantErr)
			}
			if wantErr == nil && (!reflect.DeepEqual(got, want) || !reflect.DeepEqual(direct, want)) {
				t.Fatalf("%q:\n got %#v\ndirect %#v\nwant %#v", in, got, direct, want)
			}
		}

		// Records cut from the bytes survive the gate's encoding; values
		// that are not UTF-8 come back as encoding/json repairs them.
		recs := splitRecords(data)
		var got RetrieveResult
		if err := decodeResponse(ok200, frameOf(t, &RetrieveResult{APIVersion: APIVersion, Records: recs}), &got); err != nil {
			t.Fatalf("gate-encoded answer does not decode: %v", err)
		}
		if len(got.Records) != len(recs) {
			t.Fatalf("%d records decoded, %d sent", len(got.Records), len(recs))
		}
		for i, rec := range recs {
			if len(got.Records[i]) != len(rec) || cap(got.Records[i]) != len(rec) {
				t.Fatalf("record %d: len %d cap %d, want %d", i, len(got.Records[i]), cap(got.Records[i]), len(rec))
			}
			for j, v := range rec {
				want := v
				if !utf8.ValidString(v) {
					b, _ := json.Marshal(v)
					_ = json.Unmarshal(b, &want)
				}
				if got.Records[i][j] != want {
					t.Fatalf("record %d value %d: got %q, want %q", i, j, got.Records[i][j], want)
				}
			}
		}
	})
}
