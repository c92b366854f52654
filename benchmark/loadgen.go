package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"wisdom/internal/serve"
)

// clientCount is nproc on the reference box. Each client holds one persistent
// connection and has one request in flight at a time.
const clientCount = 2

// sample is one completed (or failed) request as the client saw it.
type sample struct {
	req     request
	latency time.Duration
	// first is when the first generated body text arrived: the second delta
	// of a stream (the first only echoes the name line), or the whole answer
	// for a unary request or a cache hit.
	first  time.Duration
	deltas int
	// text is the suggestion the user would see: the terminal response's
	// authoritative suggestion, which for a stream must also equal the
	// concatenated deltas unless the response says they were replaced.
	text string
	resp serve.Response
	err  error
}

// client is one load generator connection.
type client struct {
	id   int
	url  string
	http *http.Client
	rpc  *serve.Client
	tr   *tracer
	next int64 // request ids: id + clientCount*n + 1, never 0
}

func newClient(id int, f *fleet) (*client, error) {
	c := &client{id: id, url: f.httpURL, tr: f.tr, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
	var err error
	if c.rpc, err = serve.Dial(f.rpcAddr); err != nil {
		return nil, err
	}
	if _, err := c.rpc.Health(); err != nil {
		return nil, fmt.Errorf("front health: %w", err)
	}
	return c, nil
}

func (c *client) close() {
	c.http.CloseIdleConnections()
	c.rpc.Close()
}

// do sends one request and waits for its answer. traced announces the request
// to the tracer so the fleet's wrappers can attribute their spans.
func (c *client) do(req request, traced bool) sample {
	s := sample{req: req}
	var id int64
	if traced && c.tr != nil {
		c.next++
		id = c.next*clientCount + int64(c.id)
		key := requestKey(req.Req.Context, req.Req.Prompt, req.Req.SessionID)
		c.tr.begin(key, id)
		defer c.tr.end(key)
	}
	start := time.Now()
	switch req.Via {
	case httpUnary:
		s.resp, s.err = c.postUnary(req.Req, id)
	case httpSSE:
		s.resp, s.err = c.postSSE(req.Req, id, start, &s)
	case rpcUnary:
		s.resp, s.err = c.rpc.Predict(req.Req)
	case rpcStream:
		var sb strings.Builder
		s.resp, s.err = c.rpc.PredictStream(req.Req, func(d string) {
			sb.WriteString(d)
			s.noteDelta(sb.String(), start)
		})
		s.text = sb.String()
	}
	end := time.Now()
	s.latency = end.Sub(start)
	if s.err == nil {
		if !req.Via.streams() || s.resp.Replaced {
			s.text = s.resp.Suggestion
		} else if s.text != s.resp.Suggestion {
			s.err = errors.New("concatenated deltas differ from the final suggestion although it is not marked replaced")
		}
	}
	if s.first == 0 {
		s.first = s.latency
	}
	if id != 0 {
		c.tr.add(id, layerClient, start, end)
		if req.Via == rpcUnary || req.Via == rpcStream {
			// No wrapper fits around the front's RPC loop; its own reported
			// handling time stands in for the router.front span.
			c.tr.addReported(id, layerFront, start, end, s.resp.LatencyMS)
		}
	}
	return s
}

// noteDelta records the arrival of the first text past the name line.
func (s *sample) noteDelta(soFar string, start time.Time) {
	s.deltas++
	if s.first == 0 {
		if nl := strings.IndexByte(soFar, '\n'); nl >= 0 && len(soFar) > nl+1 {
			s.first = time.Since(start)
		}
	}
}

func (c *client) post(path string, req serve.Request, id int64) (*http.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id != 0 {
		hreq.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func (c *client) postUnary(req serve.Request, id int64) (serve.Response, error) {
	var out serve.Response
	resp, err := c.post("/v1/completions", req, id)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	if out.Error != "" {
		return out, errors.New(out.Error)
	}
	// Read to EOF so the transport can reuse the connection.
	_, err = io.Copy(io.Discard, resp.Body)
	return out, err
}

// postSSE reads one Server-Sent Events stream to its terminal event.
func (c *client) postSSE(req serve.Request, id int64, start time.Time, s *sample) (serve.Response, error) {
	var out serve.Response
	resp, err := c.post("/v1/completions/stream", req, id)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	var text strings.Builder
	event, done := "", false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 2<<20) // a done event carries the whole suggestion on one line
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := line[len("data: "):]
			switch event {
			case serve.StreamDelta:
				var d struct {
					Text string `json:"text"`
				}
				if err := json.Unmarshal([]byte(data), &d); err != nil {
					return out, err
				}
				text.WriteString(d.Text)
				s.noteDelta(text.String(), start)
			case serve.StreamDone:
				if err := json.Unmarshal([]byte(data), &out); err != nil {
					return out, err
				}
				done = true
			case serve.StreamError:
				return out, fmt.Errorf("stream error event: %s", data)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if !done {
		return out, errors.New("stream ended without a done event")
	}
	s.text = text.String()
	return out, nil
}

// stopRule ends a window after a fixed time when after is set, and otherwise
// after count requests per client.
type stopRule struct {
	after time.Duration
	count int
}

// runClients drives every client through its generator in a closed loop (a
// client sends its next request when the previous one has completed) until the
// rule stops it, and returns each client's samples and the window's wall time:
// from the common start to the last completion.
func runClients(clients []*client, gens []generator, rule stopRule, traced bool) ([][]sample, time.Duration) {
	out := make([][]sample, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				if rule.after == 0 && n >= rule.count {
					return
				}
				if rule.after > 0 && time.Since(start) >= rule.after {
					return
				}
				req := gens[i].next()
				time.Sleep(req.Pause)
				s := clients[i].do(req, traced)
				if fb, ok := gens[i].(interface{ served(string) }); ok && s.err == nil {
					fb.served(s.text)
				}
				out[i] = append(out[i], s)
			}
		}(i)
	}
	wg.Wait()
	return out, time.Since(start)
}
