package main

// The load generator: closed-loop clients that replay the pool against
// the loopback listeners, and the runtime counters read around a phase.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"voiceguard/internal/protocol"
	"voiceguard/internal/server"
	"voiceguard/internal/stream"
)

const (
	// maxClients bounds concurrent clients and HTTP connections: the
	// host has two CPUs, and two closed-loop clients saturate them.
	maxClients = 2
	// requestTimeout bounds one request, so a stuck server fails the run
	// instead of hanging it.
	requestTimeout = 10 * time.Second
)

// doer sends one request and returns the decoded reply.
type doer interface {
	do(ctx context.Context, it *item) outcome
}

// httpDoer POSTs pre-encoded bodies over keep-alive connections.
type httpDoer struct {
	client *http.Client
	url    string
}

func (d httpDoer) do(ctx context.Context, it *item) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url, bytes.NewReader(it.body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/gzip")
	req.Header.Set(server.RequestIDHeader, it.id)
	resp, err := d.client.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	var vr protocol.VerifyResponse
	err = json.NewDecoder(resp.Body).Decode(&vr)
	// Drain so the connection goes back to the keep-alive pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	switch {
	case resp.StatusCode != http.StatusOK:
		return outcome{err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, vr.Error)}
	case err != nil:
		return outcome{err: fmt.Errorf("decoding reply: %w", err)}
	}
	return outcome{resp: &vr}
}

// streamDoer runs one VGSP session per request: dial, handshake, upload
// frame by frame until the verdict arrives, as client.VerifyStream does.
type streamDoer struct{ addr string }

// frameResult carries the server's single reply frame to the uploader.
type frameResult struct {
	f   stream.Frame
	err error
}

func (d streamDoer) do(ctx context.Context, it *item) outcome {
	var dialer net.Dialer
	conn, err := dialer.DialContext(ctx, "tcp", d.addr)
	if err != nil {
		return outcome{err: err}
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return outcome{err: err}
	}
	if err := stream.WriteHandshake(conn, stream.Version); err != nil {
		return outcome{err: err}
	}
	if ver, err := stream.ReadHandshake(conn); err != nil || ver == 0 {
		return outcome{err: fmt.Errorf("handshake: version %d: %v", ver, err)}
	}
	// The verdict can arrive mid-upload, so it is read concurrently; the
	// reader ends with the reply or the connection, and the reply is
	// always received before return.
	replies := make(chan frameResult, 1)
	go func() {
		f, err := stream.ReadFrame(conn, 0)
		replies <- frameResult{f, err}
	}()
	var r frameResult
	got := false
	for _, frame := range it.frames {
		select {
		case r = <-replies:
			got = true
		default:
		}
		if got {
			break
		}
		if _, err := conn.Write(frame); err != nil {
			// The server answered and closed its side; the reply is the
			// outcome.
			break
		}
	}
	if !got {
		r = <-replies
	}
	if r.err != nil {
		return outcome{err: fmt.Errorf("reading reply: %w", r.err)}
	}
	if r.f.Type == stream.TypeError {
		status, _, env, err := protocol.ErrorFromStreamFrame(r.f)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{err: fmt.Errorf("error frame %d: %s", status, env.Error)}
	}
	resp, early, err := protocol.DecisionFromStreamFrame(r.f)
	return outcome{resp: resp, early: early, err: err}
}

// doerFor returns the workload's client.
func (b *bench) doerFor() doer {
	switch b.w.transport {
	case overHTTP:
		return httpDoer{b.client, b.httpURL + "/verify"}
	case overVoiceprint:
		return httpDoer{b.client, b.httpURL + "/voiceprint"}
	default:
		return streamDoer{b.streamAddr}
	}
}

// phase is one closed-loop load phase.
type phase struct {
	name    string
	clients int
	// requests stops the phase after that many requests (0: no count);
	// length stops it from issuing new ones once it has loaded the
	// server that long, calibrations not counted (0: no time).
	requests int
	length   time.Duration
}

// slice is the stretch of a phase between two calibrations.
type slice struct {
	// ttd holds the time to decision of every correct reply.
	ttd []time.Duration
	// first and last are probes taken as the slice began and ended.
	first, last probe
	// speed is the host's speed around the slice, which turns its raw
	// times into reference-host times; 0 when the phase ran without
	// calibration.
	speed float64
}

// phaseResult is what a phase measured.
type phaseResult struct {
	slices            []slice
	attempted, failed int
	firstFailure      error
}

// done counts the phase's correct replies.
func (r phaseResult) done() int {
	n := 0
	for _, s := range r.slices {
		n += len(s.ttd)
	}
	return n
}

// runPhase replays the pool with p.clients closed-loop clients: each
// sends its next request only after the previous reply, so the load
// adapts to the server instead of queueing. With a calibrator the
// phase runs in slices of sliceLen, and the reference kernels run with
// p.clients goroutines before the first slice and after each one.
func runPhase(ctx context.Context, p phase, pool []*item, d doer, cal *calibrator) phaseResult {
	var out phaseResult
	var next atomic.Int64
	var before refTimes
	if cal != nil {
		before = cal.measure(p.clients)
	}
	var loaded time.Duration
	for {
		length := p.length - loaded
		if cal != nil && length > sliceLen {
			length = sliceLen
		}
		s := runSlice(ctx, p, length, pool, d, &next, &out)
		loaded += s.last.at.Sub(s.first.at)
		if cal != nil {
			after := cal.measure(p.clients)
			s.speed = speed(before, after)
			before = after
		}
		out.slices = append(out.slices, s)
		if p.length == 0 || loaded >= p.length {
			return out
		}
	}
}

// runSlice runs the clients until the phase's request count is reached
// or, when length > 0, for length.
func runSlice(ctx context.Context, p phase, length time.Duration, pool []*item, d doer, next *atomic.Int64, out *phaseResult) slice {
	type client struct {
		ttd               []time.Duration
		attempted, failed int
		firstFailure      error
	}
	per := make([]client, p.clients)
	first := readProbe()
	var wg sync.WaitGroup
	for c := range per {
		r := &per[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if length > 0 && time.Since(first.at) >= length {
					return
				}
				k := next.Add(1) - 1
				if p.requests > 0 && k >= int64(p.requests) {
					return
				}
				it := pool[k%int64(len(pool))]
				sent := time.Now()
				o := d.do(ctx, it)
				ttd := time.Since(sent)
				r.attempted++
				if err := it.judge(o); err != nil {
					r.failed++
					if r.firstFailure == nil {
						r.firstFailure = fmt.Errorf("%s: %w", it.id, err)
					}
					continue
				}
				r.ttd = append(r.ttd, ttd)
			}
		}()
	}
	wg.Wait()
	s := slice{first: first, last: readProbe()}
	for _, r := range per {
		s.ttd = append(s.ttd, r.ttd...)
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstFailure == nil {
			out.firstFailure = r.firstFailure
		}
	}
	return s
}

// probe is one reading of the process.
type probe struct {
	at       time.Time
	allocs   uint64        // bytes allocated since start
	cpu      time.Duration // user+sys CPU since start
	gcCycles uint64
	// gcCPU and busyCPU are the runtime's estimates of the CPU time spent
	// in the collector and outside idle Ps. unit: s
	gcCPU, busyCPU float64
	schedWait      *metrics.Float64Histogram
}

// Runtime metrics the probes read.
const (
	keyHeapLive  = "/gc/heap/live:bytes"
	keyAllocs    = "/gc/heap/allocs:bytes"
	keyGCCycles  = "/gc/cycles/total:gc-cycles"
	keyGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	keyIdleCPU   = "/cpu/classes/idle:cpu-seconds"
	keyTotalCPU  = "/cpu/classes/total:cpu-seconds"
	keySchedWait = "/sched/latencies:seconds"
)

var probeKeys = []string{keyAllocs, keyGCCycles, keyGCCPU, keyIdleCPU, keyTotalCPU, keySchedWait}

// checkRuntimeMetrics fails when this Go release lacks a metric the
// probes read.
func checkRuntimeMetrics() error {
	samples := make([]metrics.Sample, len(probeKeys))
	for i, k := range probeKeys {
		samples[i].Name = k
	}
	metrics.Read(samples)
	for _, m := range samples {
		if m.Value.Kind() == metrics.KindBad {
			return fmt.Errorf("runtime metric %s unsupported", m.Name)
		}
	}
	return nil
}

func readProbe() probe {
	samples := make([]metrics.Sample, len(probeKeys))
	for i, k := range probeKeys {
		samples[i].Name = k
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return probe{
		at:        time.Now(),
		allocs:    samples[0].Value.Uint64(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCycles:  samples[1].Value.Uint64(),
		gcCPU:     samples[2].Value.Float64(),
		busyCPU:   samples[4].Value.Float64() - samples[3].Value.Float64(),
		schedWait: samples[5].Value.Float64Histogram(),
	}
}

// retainedHeap collects garbage and returns the live heap in bytes.
func retainedHeap() uint64 {
	runtime.GC()
	samples := []metrics.Sample{{Name: keyHeapLive}}
	metrics.Read(samples)
	return samples[0].Value.Uint64()
}

// histQuantile returns the q-quantile of the observations counted per
// bucket, interpolating linearly inside the bucket that holds it.
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 || cum+float64(c) < rank {
			cum += float64(c)
			continue
		}
		lo, hi := buckets[i], buckets[i+1]
		switch {
		case math.IsInf(hi, 1):
			return lo
		case math.IsInf(lo, -1):
			return hi
		}
		return lo + (hi-lo)*(rank-cum)/float64(c)
	}
	return buckets[len(buckets)-1]
}
