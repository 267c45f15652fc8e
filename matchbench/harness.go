package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/idiomatic"
	"repro/internal/httpapi"
)

// server is one booted Service behind httpapi.New on a loopback listener,
// with the HTTP client the benchmark talks to it through.
type server struct {
	svc    *idiomatic.Service
	http   *http.Server
	served chan error
	url    string
	tr     *http.Transport
	client *http.Client
}

// boot starts a Service with opts and serves it on 127.0.0.1. clients sizes
// the idle connection pool so concurrent callers each keep a connection.
func boot(opts idiomatic.ServiceOptions, clients int) (*server, error) {
	svc, err := idiomatic.NewService(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{
		svc:    svc,
		http:   &http.Server{Handler: httpapi.New(svc)},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		tr:     &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
	}
	s.client = &http.Client{Transport: s.tr}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the listener and open connections, waits for Serve to
// return, then closes the service (which flushes pending store writes).
func (s *server) close() {
	s.http.Close()
	<-s.served
	s.tr.CloseIdleConnections()
	s.svc.Close()
}

// line is one module's answer: its decoded result, its wire bytes (stream
// lines only) and when it arrived, measured from the moment the request
// carrying the module was sent.
type line struct {
	raw     []byte
	latency time.Duration
	res     idiomatic.MatchResult
}

// stream sends the suite as one /v1/match/stream request and returns its
// lines indexed by Seq, plus the time to the last line.
func (s *server) stream(suite []module) ([]line, time.Duration, error) {
	reqs := make([]idiomatic.MatchRequest, len(suite))
	for i, m := range suite {
		reqs[i] = idiomatic.MatchRequest{Name: m.Name, Source: m.Source}
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := s.client.Post(s.url+"/v1/match/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, 0, fmt.Errorf("stream: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	out := make([]line, len(suite))
	seen := 0
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		raw, err := rd.ReadBytes('\n')
		if len(raw) > 0 {
			ln := line{raw: raw, latency: time.Since(start)}
			if err := json.Unmarshal(raw, &ln.res); err != nil {
				return nil, 0, fmt.Errorf("stream: decoding line: %w", err)
			}
			if ln.res.Seq < 0 || ln.res.Seq >= len(out) || out[ln.res.Seq].raw != nil {
				return nil, 0, fmt.Errorf("stream: unexpected seq %d", ln.res.Seq)
			}
			out[ln.res.Seq] = ln
			seen++
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, 0, err
		}
	}
	total := time.Since(start)
	if seen != len(suite) {
		return nil, 0, fmt.Errorf("stream: %d lines for %d modules", seen, len(suite))
	}
	return out, total, nil
}

// match sends one module as a /v1/match request.
func (s *server) match(m module) (line, error) {
	body, err := json.Marshal(idiomatic.MatchRequest{Name: m.Name, Source: m.Source})
	if err != nil {
		return line{}, err
	}
	start := time.Now()
	resp, err := s.client.Post(s.url+"/v1/match", "application/json", bytes.NewReader(body))
	if err != nil {
		return line{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	if err != nil {
		return line{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return line{}, fmt.Errorf("match: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var wrapped struct {
		Results []idiomatic.MatchResult `json:"results"`
	}
	if err := json.Unmarshal(raw, &wrapped); err != nil {
		return line{}, fmt.Errorf("match: decoding: %w", err)
	}
	if len(wrapped.Results) != 1 {
		return line{}, fmt.Errorf("match: %d results for one module", len(wrapped.Results))
	}
	return line{latency: lat, res: wrapped.Results[0]}, nil
}
