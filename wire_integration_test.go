package fxdist_test

import (
	"encoding/gob"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"fxdist"
	"fxdist/internal/netdist"
	"fxdist/internal/query"
)

// A client that opens with a gob-encoded request instead of the wire
// magic gets the connection closed with nothing written back; a binary
// coordinator on the same servers still answers byte-identically to a
// local search.
func TestGobClientIsRefused(t *testing.T) {
	file := buildTestFile(t)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	addrs, stop, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := netdist.NewRequest([]int{query.Unspecified, query.Unspecified}, make(fxdist.PartialMatch, 2))
	req.ID = 11
	// The server may hang up mid-stream, failing the encoder's later
	// writes; what matters is what comes back.
	gob.NewEncoder(conn).Encode(&req)                     //nolint:errcheck
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // best effort
	back, err := io.ReadAll(conn)
	if len(back) != 0 {
		t.Fatalf("server wrote %d bytes back to a gob client", len(back))
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server kept the gob connection open: %v", err)
	}

	cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, pm := range rescaleQueries(t, file) {
		got, err := cl.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(canonical(got.Records), canonical(want)) {
			t.Fatalf("binary retrieve of %v disagrees with file.Search", pm)
		}
	}
}

// A server that never acks the wire magic fails Open with
// netdist.ErrWireVersion, classified as a device failure on that device.
func TestOpenReportsWireVersion(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(io.Discard, conn) //nolint:errcheck // never acks
			}()
		}
	}()
	file := buildTestFile(t)
	fs, err := file.FileSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	addrs, stop, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: []string{addrs[0], l.Addr().String()}},
		fxdist.WithDialTimeout(time.Microsecond))
	if err == nil {
		cl.Close()
		t.Fatal("Open succeeded against a server that never acks the wire magic")
	}
	if !errors.Is(err, netdist.ErrWireVersion) {
		t.Fatalf("Open returned %v, want netdist.ErrWireVersion", err)
	}
	fe := fxdist.Classify(err)
	if fe.Code != fxdist.ErrCodeDeviceFailure || fe.Device != 1 {
		t.Fatalf("Classify: code %s device %d, want %s on device 1", fe.Code, fe.Device, fxdist.ErrCodeDeviceFailure)
	}
}
