package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"wisdom/internal/dataset"
	"wisdom/internal/experiments"
	"wisdom/internal/neural"
	"wisdom/internal/observe"
	"wisdom/internal/router"
	"wisdom/internal/serve"
	"wisdom/internal/tokenizer"
	"wisdom/internal/wisdom"
)

// The fleet is composed in-process the way cmd/wisdom-serve (with -sched and
// default -sessions/-cache) and cmd/wisdom-router (defaults) compose it,
// because wisdom-serve cannot load a transformer checkpoint.
const (
	replicaCount  = 2
	cacheEntries  = 1024
	sessionSlots  = 64
	schedMaxBatch = 8
	frontWorkers  = 64
	drainDeadline = 10 * time.Second
)

// Ring placement hashes backend addresses, so the fleet listens on fixed
// loopback ports below the ephemeral range: the same key lands on the same
// replica in every run. A busy port fails set-up; on other ports placement,
// and with it every cache and session metric, would not compare.
const (
	replicaPort0 = 19101 // replica i listens on replicaPort0+i
	frontHTTP    = 19110
	frontRPC     = 19111
)

func loopback(port int) string { return fmt.Sprintf("127.0.0.1:%d", port) }

// modelSource hands each replica its own copy of the served model, and the
// verifier one more, as separate processes would each load theirs.
type modelSource interface {
	newModel() (*wisdom.Model, error)
	tasks() *universe
}

// tasks: the reference model's workloads draw from its memorised pool and
// keep the rendered input inside the prompt budget.
func (d *refData) tasks() *universe {
	tok := new(tokenizer.Tokenizer)
	if err := json.Unmarshal(d.tokJSON, tok); err != nil {
		panic(err) // the manifest's sha256 vouched for these bytes
	}
	return newUniverse(d.pool, tok, refCtx-refMaxNew)
}

// ngramSource is the model `wisdom-serve -quick` ships: trained once per
// set-up, saved, and loaded per replica through wisdom.LoadModel.
type ngramSource struct {
	saved []byte
	pool  []poolTask
}

func trainNgramSource() (*ngramSource, error) {
	suite, err := experiments.NewSuite(experiments.Quick())
	if err != nil {
		return nil, err
	}
	pre, err := suite.Pretrained(wisdom.WisdomAnsibleMulti, "", 0, 1024)
	if err != nil {
		return nil, err
	}
	model, err := wisdom.Finetune(pre, suite.Pipe.Train, wisdom.FinetuneConfig{Window: 1024})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return nil, err
	}
	src := &ngramSource{saved: buf.Bytes()}
	// Prompts the fine-tuning set holds more than once are left out: the
	// nearest-neighbour memory scores such twins a rounding error apart, in
	// an order that follows map iteration, so Predict does not repeat on them
	// (see README.md, findings) and no golden exists.
	inMemory := map[string]int{}
	for _, s := range suite.Pipe.Train {
		inMemory[strings.ToLower(s.Prompt)]++
	}
	seen := map[string]bool{}
	for _, split := range [][]dataset.Sample{suite.Pipe.Train, suite.Pipe.Valid, suite.Pipe.Test} {
		for _, s := range split {
			key := strings.ToLower(s.Prompt)
			if (s.Type != dataset.NLtoT && s.Type != dataset.TNLtoT) || seen[key] || inMemory[key] > 1 || dataset.NameLineIndent(s.NameLine) != 0 {
				continue
			}
			seen[key] = true
			src.pool = append(src.pool, poolTask{Prompt: s.Prompt, Body: s.Target})
		}
	}
	return src, nil
}

func (s *ngramSource) newModel() (*wisdom.Model, error) {
	return wisdom.LoadModel(bytes.NewReader(s.saved))
}

func (s *ngramSource) tasks() *universe { return newUniverse(s.pool, nil, 0) }

// newSource does the model half of set-up for a workload.
func newSource(workload string) (modelSource, error) {
	if workload == wlNgramDefault {
		return trainNgramSource()
	}
	return loadRefData()
}

type replica struct {
	model *wisdom.Model
	srv   *serve.Server
	reg   *observe.Registry
	addr  string
	done  chan error // ServeRPC's return
}

type fleet struct {
	replicas []*replica
	rt       *router.Router
	front    *serve.Server
	httpSrv  *http.Server
	httpDone chan error
	rpcDone  chan error
	httpURL  string
	rpcAddr  string
	tr       *tracer // nil when untraced
}

// listenFleet opens every listener of the fleet or none.
func listenFleet() (replicaLns []net.Listener, httpLn, rpcLn net.Listener, err error) {
	var lns []net.Listener
	for _, port := range []int{replicaPort0, replicaPort0 + 1, frontHTTP, frontRPC} {
		ln, err := net.Listen("tcp", loopback(port))
		if err != nil {
			for _, ln := range lns {
				ln.Close()
			}
			return nil, nil, nil, fmt.Errorf("the fleet needs loopback ports %d, %d, %d and %d: %w",
				replicaPort0, replicaPort0+1, frontHTTP, frontRPC, err)
		}
		lns = append(lns, ln)
	}
	return lns[:replicaCount], lns[2], lns[3], nil
}

// bootFleet starts two replicas behind one router on loopback sockets. With a
// tracer, the benchmark's wrappers sit around the model, the router and the
// front's HTTP handler, and the transformer's own instrumentation is on.
func bootFleet(src modelSource, tr *tracer) (_ *fleet, err error) {
	replicaLns, httpLn, rpcLn, err := listenFleet()
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil { // closing a listener also ends the goroutine serving it
			for _, ln := range append(replicaLns, httpLn, rpcLn) {
				ln.Close()
			}
		}
	}()
	f := &fleet{tr: tr}
	var addrs []string
	for _, ln := range replicaLns {
		model, err := src.newModel()
		if err != nil {
			return nil, err
		}
		r := &replica{model: model, reg: observe.NewRegistry(), addr: ln.Addr().String(), done: make(chan error, 1)}
		model.EnableSessions(neural.SessionCacheConfig{MaxSessions: sessionSlots})
		workers := 0
		if model.EnableScheduler(neural.EngineConfig{MaxBatch: schedMaxBatch}) {
			workers = 2 * schedMaxBatch
		}
		var predictor serve.Predictor = model
		if tr != nil {
			if nl, ok := model.LM.(*wisdom.NeuralLM); ok {
				nl.Model.Instrument(neural.NewInstrumentation(r.reg))
			} else {
				model.LM = &timedLM{Generator: model.LM, tr: tr}
			}
			predictor = &tracedModel{Model: model, tr: tr}
		}
		r.srv = serve.NewServerWithOptions(predictor, model.Name, serve.Options{CacheSize: cacheEntries, Workers: workers})
		r.srv.Instrument(r.reg)
		if tr != nil {
			tr.observeQueueWait(model, r.reg)
		}
		go func(ln net.Listener) { r.done <- r.srv.ServeRPC(ln) }(ln)
		f.replicas = append(f.replicas, r)
		addrs = append(addrs, r.addr)
	}

	f.rt, err = router.New(addrs, router.Options{})
	if err != nil {
		return nil, err
	}
	frontReg := observe.NewRegistry()
	f.rt.Instrument(frontReg)
	var routed serve.Predictor = f.rt
	if tr != nil {
		routed = &tracedRouter{Router: f.rt, tr: tr}
	}
	f.front = serve.NewServerWithOptions(routed, "router", serve.Options{CacheSize: cacheEntries, Workers: frontWorkers})
	f.front.Instrument(frontReg)
	f.rpcAddr = rpcLn.Addr().String()
	f.rpcDone = make(chan error, 1)
	go func() { f.rpcDone <- f.front.ServeRPC(rpcLn) }()
	handler := f.front.Handler()
	if tr != nil {
		handler = tr.middleware(handler)
	}
	f.httpSrv = &http.Server{Handler: handler}
	f.httpURL = "http://" + httpLn.Addr().String()
	f.httpDone = make(chan error, 1)
	go func() { f.httpDone <- f.httpSrv.Serve(httpLn) }()
	return f, nil
}

// close drains the fleet in the order the two commands do and waits for
// every serving goroutine to return.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainDeadline)
	defer cancel()
	var errs []error
	errs = append(errs, f.httpSrv.Shutdown(ctx), f.front.Shutdown(ctx))
	f.rt.Close()
	if err := <-f.httpDone; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, <-f.rpcDone)
	for _, r := range f.replicas {
		errs = append(errs, r.srv.Shutdown(ctx), r.model.CloseScheduler(ctx), <-r.done)
	}
	return errors.Join(errs...)
}

// busy counts work still held anywhere in the fleet: pool slots, queued
// admissions, open streams, and sequences in or waiting for a step batch.
// Between workloads it must be zero.
func (f *fleet) busy() int {
	n := f.front.Pool().Active() + f.front.Pool().Queued() + f.front.ActiveStreams()
	for _, r := range f.replicas {
		n += r.srv.Pool().Active() + r.srv.Pool().Queued() + r.srv.ActiveStreams()
		_, _, active, queued, _, _, _, _ := r.model.SchedStats()
		n += active + queued
	}
	return n
}

// settle waits up to two seconds for the fleet to go idle and returns what
// work it still holds.
func (f *fleet) settle() int {
	deadline := time.Now().Add(2 * time.Second)
	for f.busy() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return f.busy()
}

// liveGoroutines counts goroutines other than the transformer's kernel
// workers: those belong to a package-global set that grows on demand up to a
// bound and never shrinks, so they outlive every fleet by design.
func liveGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("internal/neural.dispatchKernel")) {
			count++
		}
	}
	return count
}

// goroutinesAbove waits up to two seconds for the goroutine count to fall
// back to baseline and returns how many are left above it.
func goroutinesAbove(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for liveGoroutines() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := liveGoroutines() - baseline; n > 0 {
		return n
	}
	return 0
}
