// Command wisdom-serve runs the Wisdom inference service: the REST endpoint
// and the binary RPC endpoint from the paper's Demo/Plugin section, with the
// LRU response cache, Prometheus-format metrics and graceful shutdown.
//
// Usage:
//
//	wisdom-serve -http :8080 -rpc :8081
//	curl -s localhost:8080/v1/completions -d '{"prompt":"install nginx"}'
//	curl -s localhost:8080/metrics     # Prometheus text format
//	curl -s localhost:8080/healthz     # liveness probe
//
// The served model, not a flag, decides what is composed around it: a
// transformer (wisdom-serve -load <checkpoint>) decodes through the
// continuous-batching engine and keeps per-session prefix KV state; one
// startup line says which (see ARCHITECTURE.md, "Concurrency model").
// -pprof :6060 exposes net/http/pprof on a side listener.
//
// SIGINT/SIGTERM drain in-flight HTTP and RPC requests within the -drain
// deadline before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof side listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"wisdom/internal/experiments"
	"wisdom/internal/neural"
	"wisdom/internal/observe"
	"wisdom/internal/resilience"
	"wisdom/internal/serve"
	"wisdom/internal/wisdom"
)

func main() {
	httpAddr := flag.String("http", ":8080", "REST listen address")
	rpcAddr := flag.String("rpc", "", "binary RPC listen address (empty disables)")
	variant := flag.String("variant", string(wisdom.WisdomAnsibleMulti), "model variant to serve")
	cacheSize := flag.Int("cache", 1024, "LRU response cache entries (0 disables)")
	workers := flag.Int("workers", 0, "max concurrent model predictions (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 0, "max requests waiting for a worker (0 = 4x workers, -1 disables queueing)")
	queueTimeout := flag.Duration("request-timeout", serve.DefaultQueueTimeout, "max wait for worker admission before shedding (0 = no deadline)")
	maxBody := flag.Int64("max-body", 1<<20, "max HTTP request body bytes")
	pprofAddr := flag.String("pprof", "", "net/http/pprof listen address on a side port (empty disables)")
	quick := flag.Bool("quick", false, "use the reduced training configuration")
	loadPath := flag.String("load", "", "load a previously saved model instead of training")
	savePath := flag.String("save", "", "save the trained model to this file before serving")
	metricsOn := flag.Bool("metrics", true, "record runtime metrics and serve them at /metrics")
	traceOn := flag.Bool("trace", false, "log stage span timings to stderr")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	degrade := flag.Bool("degrade", false, "serve through the degradation chain (primary -> n-gram fallback -> retrieval)")
	degradeTimeout := flag.Duration("degrade-timeout", time.Second, "per-tier prediction deadline before falling to the next tier")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive primary failures that open the circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker waits before probing the primary")
	breakerProbes := flag.Int("breaker-probes", 1, "concurrent probe requests allowed while half-open")
	sessions := flag.Int("sessions", 64, "max resident per-session prefix KV decode states (0 disables sessions)")
	sessionTTL := flag.Duration("session-ttl", 5*time.Minute, "evict sessions idle longer than this (negative disables idle eviction)")
	sessionMem := flag.Int64("session-mem", 0, "cap estimated session-state memory in bytes (0 = unbounded)")
	schedMaxBatch := flag.Int("sched-max-batch", 8, "step-batch slots of the continuous-batching engine a transformer model decodes through")
	flag.Parse()

	var reg *observe.Registry
	if *metricsOn {
		reg = observe.NewRegistry()
	}
	var tracer *observe.Tracer
	if *traceOn {
		tracer = observe.NewTracer(reg, os.Stderr)
	}

	model, fallback := buildModel(*loadPath, *savePath, *variant, *quick, tracer)

	// A transformer served directly decodes through the continuous-batching
	// engine (concurrent decodes share one step batch) and keeps per-session
	// prefix KV state. The n-gram zoo decodes from counts and has neither to
	// offer, and the degradation chain re-routes requests across tiers, which
	// would bypass the engine and break session affinity.
	engine, sessionState := "engine off", "sessions off"
	workerCount := *workers
	if !*degrade {
		if *sessions > 0 && model.EnableSessions(neural.SessionCacheConfig{
			MaxSessions: *sessions, TTL: *sessionTTL, MaxBytes: *sessionMem, // any negative TTL disables idle eviction
		}) {
			sessionState = fmt.Sprintf("sessions on (%d max, ttl %s)", *sessions, *sessionTTL)
		}
		if model.EnableScheduler(neural.EngineConfig{MaxBatch: *schedMaxBatch}) {
			engine = fmt.Sprintf("engine on (%d step-batch slots, kernel procs %d)", *schedMaxBatch, neural.KernelProcs())
			// The engine decodes many requests per worker slot, so the pool
			// should admit at least a full batch plus queued headroom.
			if workerCount == 0 {
				workerCount = 2 * *schedMaxBatch
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %s, %s\n", model.Name, engine, sessionState)

	// The served predictor is either the raw model or, with -degrade, the
	// degradation chain around it: the fine-tuned model as primary, the
	// pre-trained model (when this process trained one) as the generative
	// fallback, the retrieval memory as last resort, a circuit breaker
	// guarding the primary.
	var predictor serve.Predictor = model
	if *degrade {
		b := resilience.NewBreaker(resilience.BreakerConfig{
			FailureThreshold: *breakerThreshold,
			Cooldown:         *breakerCooldown,
			HalfOpenProbes:   *breakerProbes,
		})
		chain := wisdom.NewModelChain(model, fallback, wisdom.ChainConfig{
			Timeout: *degradeTimeout,
			Breaker: b,
		})
		if reg != nil {
			resilience.InstrumentBreaker(reg, "primary", b)
		}
		predictor = chain
		fmt.Fprintf(os.Stderr, "degradation chain on: tier timeout %s, breaker %d failures / %s cooldown\n",
			*degradeTimeout, *breakerThreshold, *breakerCooldown)
	}

	qt := *queueTimeout
	if qt == 0 {
		qt = -1 // flag 0 means "no admission deadline"
	}
	srv := serve.NewServerWithOptions(predictor, model.Name, serve.Options{
		CacheSize:    *cacheSize,
		Workers:      workerCount,
		QueueDepth:   *queueDepth,
		QueueTimeout: qt,
		MaxBodyBytes: *maxBody,
	})
	srv.Instrument(reg)
	fmt.Fprintf(os.Stderr, "worker pool: %d workers, queue %d\n",
		srv.Pool().Workers(), srv.Pool().QueueCap())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listener failures land on errc instead of os.Exit-ing from a
	// goroutine, so a dying listener still drains the other protocol.
	errc := make(chan error, 3)
	if *pprofAddr != "" {
		// The profiling endpoint lives on its own listener so it is never
		// exposed alongside the public API by accident.
		go func() {
			fmt.Fprintf(os.Stderr, "pprof listening on %s\n", *pprofAddr)
			errc <- http.ListenAndServe(*pprofAddr, nil)
		}()
	}
	if *rpcAddr != "" {
		ln, err := net.Listen("tcp", *rpcAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rpc listening on %s\n", ln.Addr())
		go func() { errc <- srv.ServeRPC(ln) }()
	}
	// The HTTP listener is opened here (not inside ListenAndServe) so the
	// resolved address is printed — ":0" gets a real port, which is what
	// the e2e tests parse.
	httpLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		fmt.Fprintf(os.Stderr, "rest listening on %s\n", httpLn.Addr())
		if err := httpSrv.Serve(httpLn); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	exitCode := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "signal received; draining in-flight requests...")
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, "wisdom-serve:", err)
			exitCode = 1
		}
	}

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "wisdom-serve: http drain:", err)
		exitCode = 1
	}
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "wisdom-serve: rpc drain:", err)
		exitCode = 1
	}
	// Drain the decode engine after the servers stop feeding it requests;
	// in-flight scheduled decodes finish within the same deadline.
	if err := model.CloseScheduler(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "wisdom-serve: scheduler drain:", err)
		exitCode = 1
	}
	fmt.Fprintln(os.Stderr, "shutdown complete")
	os.Exit(exitCode)
}

// buildModel loads a saved model or trains one from the seeded corpora.
// When this process trains, the pre-trained (not fine-tuned) model is also
// returned as the degradation chain's generative fallback tier; a loaded
// model has no such sibling, so fallback is nil and the chain degrades
// straight to retrieval.
func buildModel(loadPath, savePath, variant string, quick bool, tracer *observe.Tracer) (model, fallback *wisdom.Model) {
	if loadPath != "" {
		sp := tracer.Start("serve.load_model")
		f, err := os.Open(loadPath)
		if err != nil {
			fatal(err)
		}
		model, err = wisdom.LoadModel(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		sp.End()
		fmt.Fprintf(os.Stderr, "loaded %s from %s\n", model.Name, loadPath)
	} else {
		cfg := experiments.Default()
		if quick {
			cfg = experiments.Quick()
		}
		fmt.Fprintln(os.Stderr, "training model (seeded synthetic corpora)...")
		suite, err := experiments.NewSuiteTraced(cfg, tracer)
		if err != nil {
			fatal(err)
		}
		pre, err := suite.Pretrained(wisdom.VariantID(variant), "", 0, 1024)
		if err != nil {
			fatal(err)
		}
		sp := tracer.Start("serve.finetune")
		model, err = wisdom.Finetune(pre, suite.Pipe.Train, wisdom.FinetuneConfig{Window: 1024})
		if err != nil {
			fatal(err)
		}
		sp.End()
		fallback = pre
	}
	if savePath != "" {
		f, err := os.Create(savePath)
		if err != nil {
			fatal(err)
		}
		if err := model.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved model to %s\n", savePath)
	}
	return model, fallback
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wisdom-serve:", err)
	os.Exit(1)
}
