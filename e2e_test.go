package wisdom_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"wisdom/internal/serve"
)

// serveProc is a server process (wisdom-serve or wisdom-router) started for
// an e2e test, with the listener addresses parsed from its stderr.
type serveProc struct {
	tool     string
	cmd      *exec.Cmd
	httpAddr string
	rpcAddr  string
	stderr   *lockedBuffer
	waitErr  chan error
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) WriteLine(s string) {
	b.mu.Lock()
	b.buf.WriteString(s)
	b.buf.WriteByte('\n')
	b.mu.Unlock()
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startServe launches wisdom-serve with args on random ports and waits
// until both listeners have announced themselves on stderr. The process is
// killed (if still alive) when the test ends.
func startServe(t *testing.T, extra ...string) *serveProc {
	t.Helper()
	return startProc(t, "wisdom-serve", extra...)
}

// startProc launches one cmd/ server binary (wisdom-serve or wisdom-router;
// both share the flag and stderr-announcement conventions) on random ports
// and waits until both listeners have announced themselves.
func startProc(t *testing.T, tool string, extra ...string) *serveProc {
	t.Helper()
	bin := buildTool(t, tool)
	args := append([]string{"-http", "127.0.0.1:0", "-rpc", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{tool: tool, cmd: cmd, stderr: &lockedBuffer{}, waitErr: make(chan error, 1)}
	t.Cleanup(func() {
		cmd.Process.Kill()
		select {
		case <-p.waitErr:
		case <-time.After(5 * time.Second):
		}
	})

	httpc := make(chan string, 1)
	rpcc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.stderr.WriteLine(line)
			if addr, ok := strings.CutPrefix(line, "rest listening on "); ok {
				httpc <- addr
			}
			if addr, ok := strings.CutPrefix(line, "rpc listening on "); ok {
				rpcc <- addr
			}
		}
		p.waitErr <- cmd.Wait()
	}()

	// Training a quick model takes seconds; loading one is instant. Give
	// the slower path room.
	deadline := time.After(120 * time.Second)
	for p.httpAddr == "" || p.rpcAddr == "" {
		select {
		case a := <-httpc:
			p.httpAddr = a
		case a := <-rpcc:
			p.rpcAddr = a
		case err := <-p.waitErr:
			p.waitErr <- err
			t.Fatalf("%s exited before listening: %v\n%s", tool, err, p.stderr.String())
		case <-deadline:
			t.Fatalf("%s never announced its listeners\n%s", tool, p.stderr.String())
		}
	}
	return p
}

// terminate sends SIGTERM and returns the process's exit error (nil for
// exit status 0) once it finishes draining.
func (p *serveProc) terminate(t *testing.T) error {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.waitErr:
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not exit after SIGTERM\n%s", p.tool, p.stderr.String())
		return nil
	}
}

// e2eModel trains a quick model once per test process and returns the saved
// file, so only the first e2e test pays the training cost.
var (
	e2eModelOnce sync.Once
	e2eModelFile string
)

func e2eModelPath(t *testing.T) string {
	t.Helper()
	e2eModelOnce.Do(func() {
		path := filepath.Join(sharedBinDir(t), "e2e-model.json")
		p := startServe(t, "-quick", "-save", path)
		if err := p.terminate(t); err != nil {
			t.Fatalf("train-and-save server exited with %v\n%s", err, p.stderr.String())
		}
		e2eModelFile = path
	})
	if e2eModelFile == "" {
		t.Skip("model training failed in an earlier test")
	}
	return e2eModelFile
}

func postJSON(t *testing.T, url string, req serve.Request) (*http.Response, serve.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.Response
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &out)
	return resp, out
}

// TestE2EHappyPath boots the real binary, trains a quick model, and
// exercises both protocols plus the observability endpoints, then drains it
// with SIGTERM.
func TestE2EHappyPath(t *testing.T) {
	p := startServe(t, "-load", e2eModelPath(t))
	// An n-gram model has no decode state to batch or retain.
	if logs := p.stderr.String(); !strings.Contains(logs, ": engine off, sessions off") {
		t.Errorf("startup line for an n-gram model:\n%s", logs)
	}

	// HTTP prediction.
	base := "http://" + p.httpAddr
	resp, out := postJSON(t, base+"/v1/completions", serve.Request{Prompt: "install nginx"})
	if resp.StatusCode != 200 {
		t.Fatalf("http status = %d", resp.StatusCode)
	}
	if !strings.HasPrefix(out.Suggestion, "- name:") {
		t.Errorf("http suggestion = %q", out.Suggestion)
	}

	// RPC prediction over the real socket.
	client, err := serve.Dial(p.rpcAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rresp, err := client.Predict(serve.Request{Prompt: "restart postgresql"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rresp.Suggestion, "- name:") {
		t.Errorf("rpc suggestion = %q", rresp.Suggestion)
	}

	// Liveness and metrics endpoints.
	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hzBody, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != 200 || !strings.Contains(string(hzBody), `"status":"ok"`) {
		t.Errorf("healthz = %d %s", hz.StatusCode, hzBody)
	}
	mt, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtBody, _ := io.ReadAll(mt.Body)
	mt.Body.Close()
	for _, want := range []string{"wisdom_requests_total", "wisdom_pool_workers", "wisdom_degraded_responses_total"} {
		if !strings.Contains(string(mtBody), want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	// Graceful shutdown: SIGTERM drains and exits 0.
	if err := p.terminate(t); err != nil {
		t.Errorf("SIGTERM exit: %v\n%s", err, p.stderr.String())
	}
	if logs := p.stderr.String(); !strings.Contains(logs, "shutdown complete") {
		t.Errorf("drain log missing:\n%s", logs)
	}
}

// TestE2ETransformerCheckpoint is the deployable path for a transformer: a
// wisdom.Model saved in-process is what the real binary loads, and the model
// — not a flag — turns on the continuous-batching engine and session KV
// reuse. Every protocol must answer exactly what the in-process model
// predicts, a keystroke pair on one session_id must reuse prefix state, and
// SIGTERM must drain the engine. Under -degrade the same file gets neither.
func TestE2ETransformerCheckpoint(t *testing.T) {
	model := schedStressModel(t)
	path := filepath.Join(t.TempDir(), "transformer.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := model.Predict("", "Install nginx")
	if !strings.HasPrefix(want, "- name: Install nginx\n  ansible.builtin.apt:") {
		t.Fatalf("in-process Predict = %q", want)
	}
	stats := func(p *serveProc) serve.Stats {
		t.Helper()
		resp, err := http.Get("http://" + p.httpAddr + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st serve.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("bad /v1/stats payload: %v", err)
		}
		return st
	}

	// Cache off so all three protocols reach the engine.
	p := startServe(t, "-load", path, "-cache", "0", "-sched-max-batch", "4")
	if logs := p.stderr.String(); !strings.Contains(logs, model.Name+": engine on (4 step-batch slots") ||
		!strings.Contains(logs, "sessions on (64 max") {
		t.Fatalf("startup line does not report engine and sessions on:\n%s", logs)
	}
	if st := stats(p); !st.SchedEnabled || st.SchedMaxBatch != 4 || !st.SessionsEnabled {
		t.Fatalf("/v1/stats = %+v, want scheduler and sessions enabled", st)
	}

	base := "http://" + p.httpAddr
	req := serve.Request{Prompt: "Install nginx"}
	if resp, out := postJSON(t, base+"/v1/completions", req); resp.StatusCode != 200 || out.Suggestion != want {
		t.Errorf("http unary: %d %q, want %q", resp.StatusCode, out.Suggestion, want)
	}
	final, joined, err := sseStream(base, req)
	if err != nil {
		t.Fatal(err)
	}
	if final.Suggestion != want || joined != want {
		t.Errorf("sse: final %q, deltas %q, want %q", final.Suggestion, joined, want)
	}
	client, err := serve.Dial(p.rpcAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var deltas strings.Builder
	rresp, err := client.PredictStream(req, func(d string) { deltas.WriteString(d) })
	if err != nil {
		t.Fatal(err)
	}
	if rresp.Suggestion != want || deltas.String() != want {
		t.Errorf("rpc stream: final %q, deltas %q, want %q", rresp.Suggestion, deltas.String(), want)
	}
	if st := stats(p); st.SchedAdmitted < 3 {
		t.Errorf("engine admitted %d decodes, want the 3 just served", st.SchedAdmitted)
	}

	// Two keystrokes of one editor session: the second re-steps only the
	// suffix the first did not cover.
	for _, typed := range []string{"Install ng", "Install nginx"} {
		resp, out := postJSON(t, base+"/v1/completions", serve.Request{Prompt: typed, SessionID: "editor-1"})
		if resp.StatusCode != 200 || out.Suggestion != model.Predict("", typed) {
			t.Errorf("session keystroke %q: %d %q", typed, resp.StatusCode, out.Suggestion)
		}
	}
	if st := stats(p); st.SessionReuseRatio <= 0 {
		t.Errorf("session_reuse_ratio = %v after a shared-prefix keystroke pair", st.SessionReuseRatio)
	}

	if err := p.terminate(t); err != nil {
		t.Errorf("SIGTERM exit: %v\n%s", err, p.stderr.String())
	}
	if logs := p.stderr.String(); !strings.Contains(logs, "shutdown complete") || strings.Contains(logs, "scheduler drain:") {
		t.Errorf("engine did not drain cleanly:\n%s", logs)
	}

	// The degradation chain re-routes across tiers, so the same checkpoint
	// served under -degrade composes neither.
	d := startServe(t, "-load", path, "-degrade")
	if logs := d.stderr.String(); !strings.Contains(logs, model.Name+": engine off, sessions off") {
		t.Errorf("startup line under -degrade:\n%s", logs)
	}
	if st := stats(d); st.SchedEnabled || st.SessionsEnabled {
		t.Errorf("/v1/stats under -degrade = %+v, want neither", st)
	}
	if resp, out := postJSON(t, "http://"+d.httpAddr+"/v1/completions", req); resp.StatusCode != 200 || out.Suggestion != want {
		t.Errorf("under -degrade: %d %q, want %q", resp.StatusCode, out.Suggestion, want)
	}
	if err := d.terminate(t); err != nil {
		t.Errorf("SIGTERM exit under -degrade: %v", err)
	}
}

// TestE2EOverloadShedding pins the shedding behaviour of a deliberately
// tiny deployment: one worker, no queue — concurrent distinct requests must
// produce 503s carrying a Retry-After header, and the server must keep
// serving afterwards.
func TestE2EOverloadShedding(t *testing.T) {
	p := startServe(t, "-load", e2eModelPath(t), "-workers", "1", "-queue", "-1", "-cache", "0")

	base := "http://" + p.httpAddr
	const n = 40
	// Each request drags a large distinct context so the single worker is
	// held for a macroscopic time per prediction (context tokenisation is
	// linear in its size); without it an n-gram prediction finishes in
	// microseconds and 40 "concurrent" HTTP requests never actually collide.
	filler := strings.Repeat("- name: previously generated task\n  ansible.builtin.debug:\n    msg: filler\n", 4000)
	var wg sync.WaitGroup
	codes := make([]int, n)
	retryAfter := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(serve.Request{
				Prompt:  fmt.Sprintf("install package number %d", i),
				Context: fmt.Sprintf("# request %d\n%s", i, filler),
			})
			resp, err := http.Post(base+"/v1/completions", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i := 0; i < n; i++ {
		switch codes[i] {
		case 200:
			ok++
		case 503:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("request %d shed without Retry-After", i)
			}
		}
	}
	if ok == 0 {
		t.Error("no request succeeded under overload")
	}
	if shed == 0 {
		t.Error("one worker with no queue never shed under 40 concurrent requests")
	}
	t.Logf("overload: %d ok, %d shed", ok, shed)

	// The server recovers: a lone request succeeds.
	resp, out := postJSON(t, base+"/v1/completions", serve.Request{Prompt: "install nginx"})
	if resp.StatusCode != 200 || !strings.HasPrefix(out.Suggestion, "- name:") {
		t.Errorf("post-overload request: %d %q", resp.StatusCode, out.Suggestion)
	}
	if err := p.terminate(t); err != nil {
		t.Errorf("SIGTERM exit: %v", err)
	}
}

// TestE2EDegradedServing boots the binary with the degradation chain and an
// aggressive tier timeout, verifying the resilience flags wire through: the
// loaded model alone (no fallback sibling) must still answer requests, and
// the breaker metric must be exported.
func TestE2EDegradedServing(t *testing.T) {
	p := startServe(t, "-load", e2eModelPath(t), "-degrade",
		"-degrade-timeout", "5s", "-breaker-threshold", "3", "-breaker-cooldown", "2s")

	base := "http://" + p.httpAddr
	resp, out := postJSON(t, base+"/v1/completions", serve.Request{Prompt: "install nginx"})
	if resp.StatusCode != 200 {
		t.Fatalf("http status = %d", resp.StatusCode)
	}
	if out.Degraded {
		t.Errorf("healthy primary served degraded: %+v", out)
	}
	if !strings.HasPrefix(out.Suggestion, "- name:") {
		t.Errorf("suggestion = %q", out.Suggestion)
	}

	mt, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtBody, _ := io.ReadAll(mt.Body)
	mt.Body.Close()
	if !strings.Contains(string(mtBody), "wisdom_breaker_state") {
		t.Error("metrics missing wisdom_breaker_state")
	}
	if err := p.terminate(t); err != nil {
		t.Errorf("SIGTERM exit: %v", err)
	}
}

// TestE2EGenAgainstServer drives the wisdom-gen client path against a live
// server: the -server flag must fetch a suggestion over RPC through the
// retrying client.
func TestE2EGenAgainstServer(t *testing.T) {
	p := startServe(t, "-load", e2eModelPath(t))
	gen := buildTool(t, "wisdom-gen")

	out, err := exec.Command(gen, "-server", p.rpcAddr, "-prompt", "install nginx").CombinedOutput()
	if err != nil {
		t.Fatalf("wisdom-gen -server: %v\n%s", err, out)
	}
	if !strings.HasPrefix(string(out), "- name:") {
		t.Errorf("wisdom-gen output = %q", out)
	}
	if err := p.terminate(t); err != nil {
		t.Errorf("SIGTERM exit: %v", err)
	}
}

// TestE2EStreaming drives the streaming path end to end against the real
// binaries: wisdom-gen -stream over RPC must print byte-identical output to
// the unary call, and the SSE endpoint must deliver the same answer as
// incremental delta events.
func TestE2EStreaming(t *testing.T) {
	p := startServe(t, "-load", e2eModelPath(t))
	gen := buildTool(t, "wisdom-gen")

	// Distinct prompts so the streamed run is not a cache hit of the unary
	// one (a cached answer arrives as a single delta, which would weaken
	// the equivalence check); the same prompt streamed twice then exercises
	// the cache-hit stream.
	unary, err := exec.Command(gen, "-server", p.rpcAddr, "-prompt", "install nginx").Output()
	if err != nil {
		t.Fatalf("unary wisdom-gen: %v", err)
	}
	streamed, err := exec.Command(gen, "-server", p.rpcAddr, "-prompt", "install nginx", "-stream").Output()
	if err != nil {
		t.Fatalf("wisdom-gen -stream: %v", err)
	}
	if !bytes.Equal(unary, streamed) {
		t.Errorf("streamed output differs from unary:\nunary:    %q\nstreamed: %q", unary, streamed)
	}

	// SSE over the HTTP listener: deltas must concatenate to the done
	// event's suggestion (or the done event must say "replaced").
	body, _ := json.Marshal(serve.Request{Prompt: "start redis"})
	resp, err := http.Post("http://"+p.httpAddr+"/v1/completions/stream",
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	var sb strings.Builder
	var final serve.Response
	done := false
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "delta":
				var d struct {
					Text string `json:"text"`
				}
				if err := json.Unmarshal([]byte(data), &d); err != nil {
					t.Fatalf("bad delta payload %q: %v", data, err)
				}
				sb.WriteString(d.Text)
			case "done":
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("bad done payload %q: %v", data, err)
				}
				done = true
			case "error":
				t.Fatalf("stream error event: %s", data)
			}
		}
	}
	if !done {
		t.Fatal("stream ended without a done event")
	}
	if !final.Replaced && sb.String() != final.Suggestion {
		t.Errorf("concatenated deltas = %q, final suggestion = %q", sb.String(), final.Suggestion)
	}
	if !strings.HasPrefix(final.Suggestion, "- name: start redis") {
		t.Errorf("suggestion = %q", final.Suggestion)
	}

	if err := p.terminate(t); err != nil {
		t.Errorf("SIGTERM exit: %v", err)
	}
}
