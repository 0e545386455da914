// Command voiceguard-server runs the verification backend: it trains the
// anti-spoofing pipeline (and optionally an ASV back-end over a synthetic
// background population), then serves /verify, /voiceprint, /healthz,
// /stats and /metrics over HTTP. The decision flight-recorder endpoints
// (/debug/decisions, /debug/decisions.jsonl, /debug/trace/{id}) expose
// verification verdicts and evidence, so they are opt-in via -decisions,
// like -pprof; -evidence mounts the per-decision evidence-pack download
// and -evidence-dir spools packs for rejected decisions to disk.
// SIGINT/SIGTERM drain in-flight verifications before exit.
//
// The pipeline is constructed through rebuild.System from an explicit
// evidence.Provenance recipe, which is embedded in every exported pack —
// `voiceguard-trace pack replay` rebuilds the exact serving system from a
// pack alone and reproduces its verdicts bit-for-bit.
//
// Usage:
//
//	voiceguard-server -addr :8443
//	voiceguard-server -addr :8443 -asv -enroll victim:seed=17
//	voiceguard-server -addr :8443 -pprof -decisions -metrics=false
//	voiceguard-server -addr :8443 -verify-timeout 2s -max-inflight 16
//	voiceguard-server -addr :8443 -decisions -evidence -evidence-dir /var/spool/voiceguard
//	voiceguard-server -addr :8443 -stream-addr :8444 -stream-frame-timeout 30s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"voiceguard/internal/evidence"
	"voiceguard/internal/evidence/rebuild"
	"voiceguard/internal/server"
)

// config carries the parsed command line into run.
type config struct {
	addr          string
	streamAddr    string
	streamFrameTO time.Duration
	seed          int64
	withASV       bool
	enrollSpec    string
	metrics       bool
	withPprof     bool
	decisions     bool
	flight        int
	traceSample   float64
	verifyTimeout time.Duration
	maxInflight   int
	evidenceOn    bool
	evidenceDir   string

	drift          bool
	sloAvail       float64 // unit: dimensionless
	sloLatency     float64 // unit: dimensionless
	sloLatencyGood time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8443", "listen address")
	flag.StringVar(&cfg.streamAddr, "stream-addr", "", "also serve the binary streaming verification protocol on this TCP address (see PROTOCOL.md; empty = disabled)")
	flag.DurationVar(&cfg.streamFrameTO, "stream-frame-timeout", 0, "per-frame read/write deadline on streaming sessions, and the idle deadline of each HTTP request body read (0 = default 30s)")
	flag.Int64Var(&cfg.seed, "seed", 1, "training seed")
	flag.BoolVar(&cfg.withASV, "asv", false, "train and attach the ASV (speaker-identity) stage")
	flag.StringVar(&cfg.enrollSpec, "enroll", "", "comma-separated user:seed=N pairs to enroll synthetic users")
	flag.BoolVar(&cfg.metrics, "metrics", true, "expose the GET /metrics Prometheus endpoint")
	flag.BoolVar(&cfg.withPprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.BoolVar(&cfg.decisions, "decisions", false, "mount the decision flight-recorder endpoints under /debug/ (they expose verdicts and evidence)")
	flag.IntVar(&cfg.flight, "flight", 0, "decision flight-recorder capacity (0 = default)")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 1, "fraction of requests recording span traces [0, 1]")
	flag.DurationVar(&cfg.verifyTimeout, "verify-timeout", 0, "per-request verification deadline; exceeded attempts answer 503 (0 = unbounded)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "concurrent verification cap; excess requests are shed with 429 (0 = unbounded)")
	flag.BoolVar(&cfg.evidenceOn, "evidence", false, "mount GET /debug/evidence/{trace_id} serving per-decision evidence packs (they embed session audio unless ?redact=digests)")
	flag.StringVar(&cfg.evidenceDir, "evidence-dir", "", "spool an evidence pack into this directory for every rejected decision")
	flag.BoolVar(&cfg.drift, "drift", true, "mount the GET /debug/drift aggregate drift/SLO report (windows are always fed)")
	flag.Float64Var(&cfg.sloAvail, "slo-availability", 0, "availability objective, e.g. 0.999 (0 disables the availability SLO)")
	flag.Float64Var(&cfg.sloLatency, "slo-latency", 0, "latency objective, e.g. 0.99 (0 disables the latency SLO)")
	flag.DurationVar(&cfg.sloLatencyGood, "slo-latency-threshold", time.Second, "latency at or under which a decided verify counts as good for -slo-latency")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, logger); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config, logger *slog.Logger) error {
	prov, err := provenance(cfg)
	if err != nil {
		return err
	}
	sys, err := rebuild.System(prov)
	if err != nil {
		return fmt.Errorf("building pipeline: %w", err)
	}
	if cfg.withASV {
		logger.Info("ASV stage attached", "backend", sys.Identity.Backend())
	}
	opts := []server.Option{
		server.WithMetricsEndpoint(cfg.metrics),
		server.WithFlightRecorder(cfg.flight),
		server.WithTraceSampling(cfg.traceSample),
		server.WithEvidenceProvenance(prov),
	}
	if cfg.withPprof {
		opts = append(opts, server.WithPprof())
	}
	if cfg.decisions {
		opts = append(opts, server.WithDecisionEndpoints())
	}
	if cfg.verifyTimeout > 0 {
		opts = append(opts, server.WithVerifyTimeout(cfg.verifyTimeout))
	}
	if cfg.maxInflight > 0 {
		opts = append(opts, server.WithMaxInflightVerifies(cfg.maxInflight))
	}
	if cfg.evidenceOn {
		opts = append(opts, server.WithEvidenceEndpoint())
	}
	if cfg.evidenceDir != "" {
		opts = append(opts, server.WithEvidenceDir(cfg.evidenceDir))
	}
	opts = append(opts, server.WithDriftEndpoint(cfg.drift))
	if cfg.sloAvail > 0 || cfg.sloLatency > 0 {
		opts = append(opts, server.WithSLO(cfg.sloAvail, cfg.sloLatency, cfg.sloLatencyGood))
	}
	if cfg.streamFrameTO > 0 {
		opts = append(opts, server.WithStreamFrameTimeout(cfg.streamFrameTO))
	}
	srv, err := server.New(sys, logger, opts...)
	if err != nil {
		return err
	}
	ready := make(chan string, 1)
	go func() {
		logger.Info("listening", "addr", <-ready, "metrics", cfg.metrics,
			"pprof", cfg.withPprof, "decisions", cfg.decisions,
			"evidence", cfg.evidenceOn, "evidence_dir", cfg.evidenceDir,
			"verify_timeout", cfg.verifyTimeout, "max_inflight", cfg.maxInflight)
	}()
	errCh := make(chan error, 2)
	serving := 1
	go func() { errCh <- srv.ListenAndServe(cfg.addr, ready) }()
	if cfg.streamAddr != "" {
		serving++
		streamReady := make(chan string, 1)
		go func() { logger.Info("stream listening", "addr", <-streamReady) }()
		go func() { errCh <- srv.ListenAndServeStream(cfg.streamAddr, streamReady) }()
	}
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		logger.Info("shutting down, draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("shutting down: %w", err)
		}
		for i := 0; i < serving; i++ {
			if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
				return err
			}
		}
		st := srv.Stats()
		logger.Info("stopped", "requests", st.Requests, "accepted", st.Accepted,
			"rejected", st.Rejected, "errors", st.Errors,
			"deadline_exceeded", st.DeadlineExceeded, "shed", st.Shed)
		return nil
	}
}

// provenance derives the system construction recipe from the command
// line. The recipe both drives rebuild.System and is embedded in every
// exported evidence pack, so a pack records exactly what this process
// served with.
func provenance(cfg config) (evidence.Provenance, error) {
	p := evidence.Provenance{Generator: "server", FieldSeed: cfg.seed}
	if !cfg.withASV {
		if cfg.enrollSpec != "" {
			return p, fmt.Errorf("-enroll requires -asv")
		}
		return p, nil
	}
	p.ASV = &evidence.ASVProvenance{
		Seed: cfg.seed, Roster: 8, Sessions: 2, Utterances: 2, Digits: 6,
	}
	if cfg.enrollSpec == "" {
		return p, nil
	}
	for _, entry := range strings.Split(cfg.enrollSpec, ",") {
		name, seedPart, ok := strings.Cut(entry, ":seed=")
		if !ok {
			return p, fmt.Errorf("bad enroll entry %q (want user:seed=N)", entry)
		}
		s, err := strconv.ParseInt(seedPart, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad seed in %q: %w", entry, err)
		}
		p.ASV.Enroll = append(p.ASV.Enroll, evidence.EnrollProvenance{
			User: name, Seed: s, Passphrase: "472913", Utterances: 4,
		})
	}
	return p, nil
}
