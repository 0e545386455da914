package main

// The workloads, the seed-derived session pool each one replays, and the
// served system they run against.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"voiceguard/internal/attack"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/evidence"
	"voiceguard/internal/evidence/rebuild"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/server"
	"voiceguard/internal/stream"
)

// transport is how a workload's requests reach the server.
type transport int

const (
	overHTTP       transport = iota + 1 // POST /verify
	overStream                          // one VGSP connection per session
	overVoiceprint                      // POST /voiceprint
)

// workload is one traffic mix; BENCHMARK.json and README.md record why
// each one is in the benchmark.
type workload struct {
	name      string
	transport transport
	// replay serves loudspeaker replays of the enrolled users instead of
	// genuine sessions.
	replay bool
}

var workloads = []workload{
	{name: "http-genuine", transport: overHTTP},
	{name: "stream-genuine", transport: overStream},
	{name: "stream-replay", transport: overStream, replay: true},
	{name: "voiceprint", transport: overVoiceprint},
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const (
	// poolSize is the number of distinct pre-encoded requests a workload
	// cycles through.
	poolSize = 16
	// users is the number of enrolled users; pool session j claims user
	// j, so a pool averages over as many voices as it has sessions.
	users = poolSize
	// passphrase is the spoken digit string, as voiceguard-server's
	// -enroll recipe uses.
	passphrase = "472913"
	// replayDistance is the loudspeaker-to-phone distance of replays.
	replayDistance = 0.05 // unit: m
)

// userName names enrolled user u.
func userName(u int) string { return fmt.Sprintf("user%d", u) }

// enrollSeed derives user u's enrollment seed from the workload seed.
func enrollSeed(seed int64, u int) int64 { return seed*1000 + int64(u) + 1 }

// provenance is the system recipe `voiceguard-server -asv -seed N
// -enroll user0:seed=…,…` builds, with the users derived from seed.
func provenance(seed int64) evidence.Provenance {
	p := evidence.Provenance{
		Generator: "server",
		FieldSeed: seed,
		ASV:       &evidence.ASVProvenance{Seed: seed, Roster: 8, Sessions: 2, Utterances: 2, Digits: 6},
	}
	for u := 0; u < users; u++ {
		p.ASV.Enroll = append(p.ASV.Enroll, evidence.EnrollProvenance{
			User: userName(u), Seed: enrollSeed(seed, u), Passphrase: passphrase, Utterances: 4,
		})
	}
	return p
}

// session generates pool session j of a workload.
func session(seed int64, w *workload, j int) (*core.SessionData, error) {
	u := j % users
	victim := rebuild.Profile(userName(u), enrollSeed(seed, u))
	if !w.replay {
		return attack.Genuine(victim, attack.Scenario{Seed: seed*1000 + 100 + int64(j), ClaimedUser: victim.Name})
	}
	rec, err := attack.Record(victim, passphrase, seed*1000+200+int64(j))
	if err != nil {
		return nil, err
	}
	speaker := device.Catalog()[j]
	return attack.Replay(rec, speaker, attack.Scenario{
		Seed: seed*1000 + 300 + int64(j), Distance: replayDistance, ClaimedUser: victim.Name,
	})
}

// item is one pre-encoded request and the reply it must get.
type item struct {
	// id is the trace ID: the X-Request-ID header on HTTP, the hello
	// frame's trace ID on VGSP.
	id string
	// body is the gzip JSON upload of /verify and /voiceprint requests.
	body []byte
	// req is the verification request that body or wire encodes (nil
	// for voiceprint); the traced run rebuilds trajectory.FromUpload's
	// inputs from it.
	req *protocol.VerifyRequest
	// wire holds the VGSP frames back to back, hello first and finish
	// last; frames slices it per frame, and applyCall names each frame's
	// ApplyStreamFrame span by the channel it carries.
	wire      []byte
	frames    [][]byte
	applyCall []string
	// want is the in-process reference reply.
	want verdict
}

// encode pre-encodes a session for the workload's transport.
func encode(w *workload, id string, s *core.SessionData) (*item, error) {
	it := &item{id: id}
	if w.transport == overVoiceprint {
		req, err := protocol.VoiceprintFromAudio(s.ClaimedUser, s.Voice)
		if err != nil {
			return nil, err
		}
		it.body, err = protocol.EncodeVoiceprint(req)
		return it, err
	}
	req, err := protocol.FromSession(s, ranging.DefaultPilotHz)
	if err != nil {
		return nil, err
	}
	it.req = req
	if w.transport == overHTTP {
		it.body, err = protocol.EncodeRequest(req)
		return it, err
	}
	frames, err := protocol.StreamFrames(id, req)
	if err != nil {
		return nil, err
	}
	var wire bytes.Buffer
	ends := make([]int, 0, len(frames))
	for _, f := range frames {
		if err := stream.WriteFrame(&wire, f); err != nil {
			return nil, err
		}
		ends = append(ends, wire.Len())
		kind, err := frameKind(f)
		if err != nil {
			return nil, err
		}
		it.applyCall = append(it.applyCall, "protocol.ApplyStreamFrame."+kind)
	}
	it.wire = wire.Bytes()
	start := 0
	for _, end := range ends {
		it.frames = append(it.frames, it.wire[start:end])
		start = end
	}
	return it, nil
}

// frameKind labels a client frame by the session channel it carries.
func frameKind(f stream.Frame) (string, error) {
	switch f.Type {
	case stream.TypeHello:
		return "hello", nil
	case stream.TypeSegmentMarks:
		return "marks", nil
	case stream.TypeSensorChunk:
		return "sensor", nil
	case stream.TypeFieldChunk:
		return "field", nil
	case stream.TypeAudioChunk:
		c, err := stream.DecodeAudioChunk(f.Payload)
		if err != nil {
			return "", err
		}
		if c.Kind == stream.AudioCapture {
			return "capture", nil
		}
		return "voice", nil
	case stream.TypeFinish:
		return "finish", nil
	default:
		return "", fmt.Errorf("unexpected %v frame in a session upload", f.Type)
	}
}

// bench is one set-up: the served system, its listeners and the pool.
type bench struct {
	w      *workload
	prov   evidence.Provenance
	sys    *core.System
	srv    *server.Server
	client *http.Client
	// httpURL and streamAddr are the loopback listeners; served receives
	// each listener's exit.
	httpURL, streamAddr string
	served              chan error
	pool                []*item
}

// setUp builds and enrolls the system the way voiceguard-server does,
// generates and pre-encodes the pool, computes every request's
// reference reply, and brings both listeners up.
func setUp(ctx context.Context, seed int64, w *workload) (*bench, error) {
	prov := provenance(seed)
	sys, err := rebuild.System(prov)
	if err != nil {
		return nil, err
	}
	// voiceguard-server's default options.
	srv, err := server.New(sys, nil,
		server.WithMetricsEndpoint(true),
		server.WithFlightRecorder(0),
		server.WithTraceSampling(1),
		server.WithEvidenceProvenance(prov),
		server.WithDriftEndpoint(true),
	)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, prov: prov, sys: sys, srv: srv}
	for j := 0; j < poolSize; j++ {
		s, err := session(seed, w, j)
		if err != nil {
			return nil, fmt.Errorf("generating session %d: %w", j, err)
		}
		it, err := encode(w, fmt.Sprintf("%s-%d-%02d", w.name, seed, j), s)
		if err != nil {
			return nil, fmt.Errorf("encoding session %d: %w", j, err)
		}
		if err := b.reference(ctx, it); err != nil {
			return nil, fmt.Errorf("seed %d refused: session %d: %w", seed, j, err)
		}
		b.pool = append(b.pool, it)
	}
	if err := b.listen(); err != nil {
		return nil, err
	}
	return b, nil
}

// reference computes the reply a pooled request must get, by running
// the server's own call sequence in process, and refuses a pool whose
// sessions do not behave as the workload promises.
func (b *bench) reference(ctx context.Context, it *item) error {
	got, err := b.serveInProcess(ctx, it, nil)
	if err != nil {
		return err
	}
	it.want = got.verdict
	switch {
	case b.w.replay && (it.want.Accepted || !it.want.Early || it.want.FailedStage != core.StageLoudspeaker.String()):
		return fmt.Errorf("replay reference is %v, want an early loudspeaker REJECT", it.want)
	case !b.w.replay && !it.want.Accepted:
		return fmt.Errorf("genuine reference is %v, want ACCEPT", it.want)
	case b.w.transport != overStream:
		return nil
	}
	// A streamed verdict must agree with the batch cascade on the same
	// session: bit for bit when the stream ran to the finish frame, on
	// the verdict alone when it decided early from a magnetometer prefix.
	s, err := protocol.ToSession(it.req)
	if err != nil {
		return err
	}
	d, err := b.sys.VerifyContext(ctx, it.id, s)
	if err != nil {
		return err
	}
	batch := verdictOf(protocol.DecisionToResponse(d), false)
	if it.want.Early {
		if batch.Accepted {
			return fmt.Errorf("stream rejects early but VerifyContext accepts")
		}
		return nil
	}
	return batch.diff(it.want)
}

// listen starts both listeners and returns once HTTP answers /healthz.
func (b *bench) listen() error {
	httpReady, streamReady := make(chan string, 1), make(chan string, 1)
	b.served = make(chan error, 2)
	go func() { b.served <- b.srv.ListenAndServe("127.0.0.1:0", httpReady) }()
	go func() { b.served <- b.srv.ListenAndServeStream("127.0.0.1:0", streamReady) }()
	b.client = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxClients,
			MaxIdleConnsPerHost: maxClients,
			DisableCompression:  true,
		},
	}
	for _, ready := range []chan string{httpReady, streamReady} {
		select {
		case addr := <-ready:
			if ready == httpReady {
				b.httpURL = "http://" + addr
			} else {
				b.streamAddr = addr
			}
		case err := <-b.served:
			b.served <- err
			return errors.Join(fmt.Errorf("starting listeners: %w", err), b.close())
		case <-time.After(requestTimeout):
			return errors.Join(errors.New("listeners did not come up"), b.close())
		}
	}
	// Serving has begun once the HTTP listener answers; Shutdown after
	// this point always stops it.
	resp, err := b.client.Get(b.httpURL + "/healthz")
	if err != nil {
		return errors.Join(fmt.Errorf("probing /healthz: %w", err), b.close())
	}
	resp.Body.Close()
	return nil
}

// close shuts the server down and waits for both listeners to exit.
func (b *bench) close() error {
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	for i := 0; i < cap(b.served); i++ {
		if e := <-b.served; e != nil && !errors.Is(e, http.ErrServerClosed) && err == nil {
			err = e
		}
	}
	return err
}
