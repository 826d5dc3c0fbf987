package netdist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
	"fxdist/internal/query"
)

func str(s string) *string { return &s }

func sampleRequests() []Request {
	return []Request{
		{AsDevice: -1},
		{Ping: true, ID: 7, AsDevice: -1},
		NewRequest([]int{3, query.Unspecified, 0}, mkhash.PartialMatch{str("alpha"), nil, str("")}),
		{
			ID: 1<<63 + 5, TraceID: 42, ParentSpan: 99, AsDevice: 3,
			Spec:      []int{0, 1, query.Unspecified, 7},
			Specified: []bool{true, false, true, true},
			Values:    []string{"héllo", "", "x\x00y", "long-" + string(make([]byte, 300))},
		},
	}
}

func TestRequestBinaryRoundTrip(t *testing.T) {
	for i, req := range sampleRequests() {
		payload := appendRequest(nil, &req)
		if len(payload) != requestSize(&req) {
			t.Fatalf("case %d: encoded %d bytes, requestSize says %d", i, len(payload), requestSize(&req))
		}
		var got Request
		if err := decodeRequest(payload, &got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		// The codec does not distinguish nil from empty slices; normalize.
		if req.Spec == nil {
			req.Spec = []int{}
		}
		if req.Specified == nil {
			req.Specified, req.Values = []bool{}, []string{}
		}
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("case %d: round trip mismatch:\nsent %+v\ngot  %+v", i, req, got)
		}
	}
}

func sampleResponses() []Response {
	return []Response{
		{ID: 1},
		{ID: 2, Err: "netdist: server overloaded", RetryAfterMillis: 250},
		{ID: 3, Buckets: 4, Scanned: 1000, Records: []mkhash.Record{
			{"a", "b", "c"},
			{"", "", ""},
			{"x\x00", "héllo", string(make([]byte, 500))},
		}},
		{ID: 4, Records: []mkhash.Record{{}}},
	}
}

func TestResponseBinaryRoundTrip(t *testing.T) {
	for _, arena := range []bool{false, true} {
		for _, pooled := range []bool{false, true} {
			for i, resp := range sampleResponses() {
				payload := appendResponse(nil, &resp)
				if len(payload) != responseSize(&resp) {
					t.Fatalf("case %d: encoded %d bytes, responseSize says %d", i, len(payload), responseSize(&resp))
				}
				var got Response
				release, err := decodeResponse(payload, &got, clientHits(!pooled), arena && pooled)
				if err != nil {
					t.Fatalf("case %d (arena=%v pooled=%v): decode: %v", i, arena, pooled, err)
				}
				if len(resp.Records) == 0 {
					if got.Records != nil || release != nil {
						t.Fatalf("case %d: empty response decoded with records/release", i)
					}
					got.Records = resp.Records
				} else if arena && pooled && release == nil {
					t.Fatalf("case %d: arena decode returned no release", i)
				}
				if !respEqual(resp, got) {
					t.Fatalf("case %d (arena=%v pooled=%v): round trip mismatch:\nsent %+v\ngot  %+v",
						i, arena, pooled, resp, got)
				}
				if release != nil {
					release()
				}
			}
		}
	}
}

func TestDecodeRejectsTruncatedAndCorruptFrames(t *testing.T) {
	resp := sampleResponses()[2]
	payload := appendResponse(nil, &resp)
	// Every proper prefix must fail cleanly: the record count is
	// declared up front, so a cut-off frame can never half-decode.
	for i := 0; i < len(payload); i++ {
		var got Response
		if _, err := decodeResponse(payload[:i], &got, nil, false); err == nil {
			t.Fatalf("truncated response frame of %d/%d bytes decoded", i, len(payload))
		}
	}
	req := sampleRequests()[3]
	reqPayload := appendRequest(nil, &req)
	for i := 0; i < len(reqPayload); i++ {
		var got Request
		if err := decodeRequest(reqPayload[:i], &got); err == nil {
			t.Fatalf("truncated request frame of %d/%d bytes decoded", i, len(reqPayload))
		}
	}
	// A record count far beyond the payload is corruption, not an
	// allocation request: swap the empty response's trailing zero count
	// for a huge one.
	base := appendResponse(nil, &Response{ID: 9})
	huge := binary.AppendUvarint(base[:len(base)-1], 1<<40)
	var got Response
	if _, err := decodeResponse(huge, &got, nil, false); err == nil {
		t.Fatal("giant record count decoded")
	}
}

func TestFrameRoundTripAndLimits(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	err := writeFrame(&buf, nil, len(payload), func(b []byte) []byte { return append(b, payload...) })
	if err != nil {
		t.Fatal(err)
	}
	got, done, err := readFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: got %q", got)
	}
	done()
	if err := writeFrame(&buf, nil, maxFrame+1, nil); err == nil {
		t.Fatal("oversized frame written")
	}
	var hdr [frameLenSize]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
	if _, _, err := readFrame(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// handshakeListener accepts connections and hands each to serve. It
// returns the listener's address and a func that reports how many
// connections were accepted so far, so a test can tell a single dial
// from a redial.
func handshakeListener(t *testing.T, serve func(net.Conn)) (addr string, accepted func() int) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	remotes := make(chan string, 16) // far more than any test dials
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			remotes <- conn.RemoteAddr().String()
			go func() {
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	addr = l.Addr().String()
	// accepted dials a sentinel connection and counts the accepts ahead
	// of it: the listener accepts in connection order, so every
	// connection made before the call is counted.
	accepted = func() int {
		sentinel, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer sentinel.Close()
		for n := 0; ; n++ {
			select {
			case r := <-remotes:
				if r == sentinel.LocalAddr().String() {
					return n
				}
			case <-time.After(5 * time.Second):
				t.Fatal("listener stopped accepting")
			}
		}
	}
	return addr, accepted
}

// dialWithBadDevice deploys a real server for device 0 and dials it
// alongside addr as device 1, returning how long Dial took and its
// error.
func dialWithBadDevice(t *testing.T, addr string) (time.Duration, error) {
	t.Helper()
	file := buildFile(t, 50)
	fs, err := file.FileSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	addrs, stop, err := Deploy(file, decluster.MustFX(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	t0 := time.Now()
	coord, err := Dial(file, []string{addrs[0], addr}, WithTimeout(time.Nanosecond))
	elapsed := time.Since(t0)
	if err == nil {
		coord.Close()
	}
	return elapsed, err
}

// checkWireVersionErr asserts err is ErrWireVersion inside a DeviceError
// naming device 1 at addr.
func checkWireVersionErr(t *testing.T, err error, addr string) {
	t.Helper()
	if !errors.Is(err, ErrWireVersion) {
		t.Fatalf("Dial returned %v, want ErrWireVersion", err)
	}
	var de *DeviceError
	if !errors.As(err, &de) || de.Device != 1 || de.Addr != addr {
		t.Fatalf("Dial error %v does not name device 1 at %s", err, addr)
	}
}

// TestDialRejectsSilentServer dials a listener that accepts and never
// acks the magic: Dial fails with ErrWireVersion after the fixed
// handshake window (a 1ns request timeout does not shorten it) and
// never redials.
func TestDialRejectsSilentServer(t *testing.T) {
	addr, accepted := handshakeListener(t, func(conn net.Conn) {
		io.Copy(io.Discard, conn) //nolint:errcheck // holds the conn open until the client closes
	})
	elapsed, err := dialWithBadDevice(t, addr)
	checkWireVersionErr(t, err, addr)
	if elapsed < handshakeWindow || elapsed > handshakeWindow+time.Second {
		t.Errorf("Dial gave up after %v, want about the %v handshake window", elapsed, handshakeWindow)
	}
	if n := accepted(); n != 1 {
		t.Fatalf("listener saw %d connections, want exactly 1 (no redial)", n)
	}
}

// TestDialRejectsWrongAck dials a listener that acks with another
// protocol version: Dial fails with ErrWireVersion at once.
func TestDialRejectsWrongAck(t *testing.T) {
	addr, accepted := handshakeListener(t, func(conn net.Conn) {
		var magic [len(wireMagic)]byte
		if _, err := io.ReadFull(conn, magic[:]); err != nil {
			return
		}
		if _, err := conn.Write([]byte{'F', 'X', 'B', 2}); err != nil {
			return
		}
		io.Copy(io.Discard, conn) //nolint:errcheck // holds the conn open until the client closes
	})
	elapsed, err := dialWithBadDevice(t, addr)
	checkWireVersionErr(t, err, addr)
	if elapsed >= handshakeWindow {
		t.Errorf("Dial took %v on a wrong ack, want a prompt failure", elapsed)
	}
	if !strings.Contains(err.Error(), `"FXB\x02"`) {
		t.Errorf("error %q does not show the ack it got", err)
	}
	if n := accepted(); n != 1 {
		t.Fatalf("listener saw %d connections, want exactly 1 (no redial)", n)
	}
}

// TestDialNegotiatesBinary checks the happy path: the handshake acks
// and retrieval over binary frames agrees with a direct file search.
func TestDialNegotiatesBinary(t *testing.T) {
	file := buildFile(t, 800)
	coord, cleanup := deploy(t, file, 4)
	defer cleanup()
	pm, err := file.Spec(map[string]string{"supplier": "sup3"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := file.Search(pm)
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := recordKeys(res.Records), recordKeys(want); !reflect.DeepEqual(got, exp) {
		t.Fatalf("binary retrieve disagrees with file.Search: got %d records, want %d", len(got), len(exp))
	}
}
