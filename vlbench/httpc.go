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
	"strings"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/server"
)

// harness is the real HTTP server on a loopback port plus the benchmark's
// one request connection. The SSE stream, when open, is the second and last
// client connection.
type harness struct {
	mgr    *core.SessionManager
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
}

func startServer(mgr *core.SessionManager) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		mgr:    mgr,
		srv:    server.NewManaged(mgr, nil),
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	h.hs = &http.Server{Handler: h.srv}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return h, nil
}

// close stops the server, drops every connection and waits for Serve to return.
func (h *harness) close() {
	h.client.CloseIdleConnections()
	_ = h.hs.Close()
	<-h.served
}

// do issues one request on the request connection and reads the whole
// response. inm, when set, is sent as If-None-Match.
func (h *harness) do(method, path string, body []byte, inm string) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, out, err
}

// expect runs do and turns any status other than want into an error.
func (h *harness) expect(want int, method, path string, body []byte) ([]byte, error) {
	code, _, out, err := h.do(method, path, body, "")
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, code, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// sseEvent is one pane event of the stream, as the server encodes it.
type sseEvent struct {
	Seq      uint64 `json:"seq"`
	Pane     int    `json:"pane"`
	ETag     string `json:"etag"`
	Snapshot bool   `json:"snapshot"`
	Body     string `json:"body"`

	bytes int // wire bytes of the whole event, less wall-clock digits
}

// sseConn is one open /stream connection read by its own goroutine.
type sseConn struct {
	resp   *http.Response
	events chan sseEvent
	errc   chan error
}

// openSSE subscribes to path and waits for the hello event.
func (h *harness) openSSE(path string) (*sseConn, error) {
	// A transport of its own, so the stream is a second connection and
	// never queues behind the request connection.
	cl := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	resp, err := cl.Get(h.base + path)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	s := &sseConn{
		resp: resp,
		// Sized above the largest burst the server sends between two reads
		// of the loop (one catch-up snapshot plus one round, at most 16
		// frames each), so the reader never stalls the server's writer.
		events: make(chan sseEvent, 64),
		errc:   make(chan error, 1),
	}
	br := bufio.NewReaderSize(resp.Body, 256<<10)
	line, err := br.ReadString('\n')
	if err != nil || line != "event: hello\n" {
		resp.Body.Close()
		return nil, fmt.Errorf("stream: no hello (%q, %v)", line, err)
	}
	for line != "\n" {
		if line, err = br.ReadString('\n'); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("stream: hello: %w", err)
		}
	}
	go s.read(br)
	return s, nil
}

// read parses events until the body is closed, then closes events.
func (s *sseConn) read(br *bufio.Reader) {
	defer close(s.events)
	var ev sseEvent
	n := 0
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			var rest []byte
			rest, err = br.ReadBytes('\n')
			line = append(append([]byte(nil), line...), rest...)
		}
		if err != nil {
			s.errc <- err
			return
		}
		n += len(line)
		switch {
		case len(line) == 1:
			ev.bytes = n
			s.events <- ev
			ev, n = sseEvent{}, 0
		case bytes.HasPrefix(line, []byte("data: ")):
			n -= wallClockDigits(line)
			if err := json.Unmarshal(line[len("data: "):], &ev); err != nil {
				s.errc <- fmt.Errorf("stream: bad event: %w", err)
				return
			}
		}
	}
}

// durationKey introduces a pane's extraction wall time inside an event's
// JSON-escaped body.
var durationKey = []byte(`\"DurationNS\": `)

// wallClockDigits counts the digits of the extraction wall times embedded in
// an event. Their width changes from run to run, so the byte counts leave
// them out and repeat exactly.
func wallClockDigits(line []byte) int {
	n := 0
	for {
		i := bytes.Index(line, durationKey)
		if i < 0 {
			return n
		}
		line = line[i+len(durationKey):]
		for len(line) > 0 && line[0] >= '0' && line[0] <= '9' {
			n++
			line = line[1:]
		}
	}
}

// next returns the next event, failing after timeout.
func (s *sseConn) next(timeout time.Duration) (sseEvent, error) {
	select {
	case ev, ok := <-s.events:
		if !ok {
			return ev, fmt.Errorf("stream closed: %v", <-s.errc)
		}
		return ev, nil
	case <-time.After(timeout):
		return sseEvent{}, errors.New("stream: no event within timeout")
	}
}

// close disconnects and waits for the reader goroutine to finish.
func (s *sseConn) close() {
	s.resp.Body.Close()
	for range s.events {
	}
}
