package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"fxdist"
	"fxdist/client"
	"fxdist/internal/gate"
)

// The front-door fleet, all in this process over loopback TCP: device
// servers (NewDeviceServer + Serve), a netdist coordinator (Open with
// Addrs), the gate (gate.New, served over HTTP), and one client per
// connection (client.New), two tenants with no binding limits.

var tenants = []gate.TenantConfig{
	{Name: "alpha", APIKey: "key-alpha"},
	{Name: "beta", APIKey: "key-beta"},
}

type fleet struct {
	alloc fxdist.GroupAllocator
	addrs []string
	bytes *byteCounts // nil unless traced

	// servers grows and shrinks while the fleet rescales.
	serversMu sync.Mutex
	servers   []*fxdist.DeviceServer

	cluster *fxdist.Cluster
	gate    *gate.Gate
	httpSrv *http.Server

	clients    []*client.Client
	transports []*http.Transport
	respBytes  atomic.Int64

	serving sync.WaitGroup
}

// buildFile loads the generated records into a multi-key hashed file.
func buildFile(fields []field, depths []int, recs [][]string) (*fxdist.File, error) {
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.Name
	}
	file, err := fxdist.NewFile(fxdist.Schema{Fields: names, Depths: depths})
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := file.Insert(fxdist.Record(r)); err != nil {
			return nil, err
		}
	}
	return file, nil
}

// serveDevice starts one device server on a loopback listener, counting
// its bytes when counts is set.
func (f *fleet) serveDevice(srv *fxdist.DeviceServer) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	var l net.Listener = ln
	if f.bytes != nil {
		l = countingListener{Listener: ln, c: f.bytes}
	}
	f.serversMu.Lock()
	f.servers = append(f.servers, srv)
	f.serversMu.Unlock()
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(l) // returns once Close closes the listener
	}()
	return ln.Addr().String(), nil
}

// startFleet builds the file, partitions it under FX over m devices,
// and starts servers, coordinator, gate and clients.
func startFleet(fields []field, depths []int, m int, recs [][]string, workers int, rec *recorder) (_ *fleet, err error) {
	f := &fleet{}
	if rec != nil {
		f.bytes = &byteCounts{}
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	file, err := buildFile(fields, depths, recs)
	if err != nil {
		return nil, err
	}
	fs, err := file.FileSystem(m)
	if err != nil {
		return nil, err
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		return nil, err
	}
	f.alloc = fx
	spec, err := fxdist.DescribeAllocator(fx)
	if err != nil {
		return nil, err
	}
	parts, err := fxdist.PartitionFile(file, fx)
	if err != nil {
		return nil, err
	}
	for dev, part := range parts {
		srv, err := fxdist.NewDeviceServer(dev, spec, part)
		if err != nil {
			return nil, err
		}
		addr, err := f.serveDevice(srv)
		if err != nil {
			return nil, err
		}
		f.addrs = append(f.addrs, addr)
	}
	if f.cluster, err = fxdist.Open(fxdist.Config{File: file, Addrs: f.addrs}); err != nil {
		return nil, err
	}
	if f.gate, err = gate.New(gate.Config{Cluster: f.cluster, File: file, Allocator: fx, Tenants: tenants}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = f.gate
	if rec != nil {
		h = traceHandler(rec, h)
	}
	f.httpSrv = &http.Server{Handler: h}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = f.httpSrv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	url := "http://" + ln.Addr().String() + "/rpc"
	for w := 0; w < workers; w++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		var rt http.RoundTripper = tr
		if rec != nil {
			rt = &tracingTransport{base: tr, rec: rec, respBytes: &f.respBytes}
		}
		f.transports = append(f.transports, tr)
		key := tenants[w%len(tenants)].APIKey
		f.clients = append(f.clients, client.New(url, client.WithAPIKey(key), client.WithHTTPClient(&http.Client{Transport: rt})))
	}
	return f, nil
}

// warmQueries is how many pooled queries each client sends to warm up.
const warmQueries = 32

// warm sends the first pooled queries through each client, which
// compiles every shape's plan and opens every connection.
func (f *fleet) warm(qmaps []map[string]string) error {
	for _, c := range f.clients {
		for _, q := range qmaps[:warmQueries] {
			if _, err := c.Retrieve(context.Background(), q); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// close stops everything the fleet started and waits for it.
func (f *fleet) close() {
	for _, tr := range f.transports {
		tr.CloseIdleConnections()
	}
	if f.httpSrv != nil {
		f.httpSrv.Close()
	}
	if f.gate != nil {
		f.gate.Close()
	}
	if f.cluster != nil {
		f.cluster.Close()
	}
	f.dropServers(-1)
	f.serving.Wait()
}

// dropServers closes the n most recently started device servers (all
// of them for n < 0).
func (f *fleet) dropServers(n int) {
	f.serversMu.Lock()
	defer f.serversMu.Unlock()
	if n < 0 || n > len(f.servers) {
		n = len(f.servers)
	}
	keep := len(f.servers) - n
	for _, s := range f.servers[keep:] {
		s.Close()
	}
	f.servers = f.servers[:keep]
}

// respSize accumulates the paper's response-size figures over answers:
// LargestResponseSize against the strict bound ceil(|R(q)|/M).
type respSize struct {
	n, strict int
	ratioSum  float64
	rqSum     float64
}

func (r *respSize) observe(deviceBuckets []int, largest int) {
	m := len(deviceBuckets)
	rq := 0
	for _, b := range deviceBuckets {
		rq += b
	}
	if m == 0 || rq == 0 {
		return
	}
	bound := (rq + m - 1) / m
	r.n++
	r.rqSum += float64(rq)
	r.ratioSum += float64(largest) / float64(bound)
	if largest <= bound {
		r.strict++
	}
}

func (r *respSize) merge(o respSize) {
	r.n += o.n
	r.strict += o.strict
	r.ratioSum += o.ratioSum
	r.rqSum += o.rqSum
}

func (r respSize) ratio() float64 {
	if r.n == 0 {
		return 0
	}
	return r.ratioSum / float64(r.n)
}

func (r respSize) strictShare() float64 {
	if r.n == 0 {
		return 0
	}
	return float64(r.strict) / float64(r.n)
}

func (r respSize) rqMean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.rqSum / float64(r.n)
}
