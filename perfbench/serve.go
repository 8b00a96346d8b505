package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"tokenmagic/internal/node"
	"tokenmagic/internal/nodesvc"
	"tokenmagic/internal/obs"
	itm "tokenmagic/internal/tokenmagic"
)

// The node's settings, shared by every workload: η and the admission gate
// are the defaults of `tokenmagic serve` and cmd/txgen.
const (
	eta         = 0.1
	maxInFlight = 4
	maxQueue    = 8
	clients     = 2 // client goroutines and connections (the target has 2 CPUs)
)

// frameworkConfig is the node's TokenMagic configuration: Progressive
// solver, headroom, full Algorithm 1 (candidate sampling over the whole
// batch, no early stop, one worker per CPU).
func frameworkConfig(lambda int, reg *obs.Registry) itm.Config {
	return itm.Config{
		Lambda:    lambda,
		Eta:       eta,
		Headroom:  true,
		Algorithm: itm.Progressive,
		Randomize: true,
		Metrics:   reg,
	}
}

// nodeServer serves one node's protocol on a loopback port.
type nodeServer struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

// startServer serves nd through nodesvc with the admission gate, wrapped by
// sink when the round is traced.
func startServer(nd *node.Node, sink *traceSink) (*nodeServer, error) {
	svc := nodesvc.NewServer(nd)
	svc.MaxInFlight, svc.MaxQueue = maxInFlight, maxQueue
	h := svc.Handler()
	if sink != nil {
		h = sink.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &nodeServer{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return. Callers stop only after their clients have finished.
func (s *nodeServer) stop() {
	_ = s.srv.Close() // the only error is the listener's close error, irrelevant on shutdown
	<-s.done
}

// client speaks the node protocol over at most `clients` connections.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends one request tagged with its number and decodes a 200 reply
// into out. Any other status is an error carrying the node's message.
func (c *client) post(path string, seq int, body []byte, out any) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status alone is the failure
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *client) status() (nodesvc.Status, error) {
	var st nodesvc.Status
	resp, err := c.hc.Get(c.base + "/v1/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/status: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// firstStatus serves nd and returns once its first /v1/status answers: the
// end of a restart as a client sees it.
func firstStatus(nd *node.Node) error {
	srv, err := startServer(nd, nil)
	if err != nil {
		return err
	}
	defer srv.stop()
	cl := newClient(srv.url)
	defer cl.close()
	if _, err := cl.status(); err != nil {
		return fmt.Errorf("first status: %w", err)
	}
	return nil
}
