package main

// The host-speed reference. The host is shared, and how fast it runs
// the same code drifts by as much as 1.7× within a minute, in steps
// that last seconds, so raw times from two runs minutes apart differ by
// more than any change worth detecting. A phase is therefore measured
// in slices, and after every slice three reference kernels run, each on
// as many goroutines as the slice had clients. They use the standard
// library only, so no change to the repository moves them:
//
//   - compute: inflate a deflate stream, hash it with SHA-256 and run a
//     strided multiply-add over a vector that fits a core's L2 cache;
//   - memory: copy 4 MiB at a time between two 16 MiB buffers, past the
//     L2 cache;
//   - loopback: 16 small TCP round trips to an echoing goroutine, which
//     pays for syscalls, the loopback stack and goroutine wake-ups.
//
// A slice's host speed is the geometric mean, over the kernels, of each
// kernel's nominal call time over its median call time, averaged over
// the calibrations before and after the slice. The bounded time metrics
// are the raw ones multiplied by that speed slice by slice: what the run
// would have measured on a host where every kernel takes its nominal
// time. No single kernel slows the way every workload does (the compute
// kernel over-corrects stream-replay and under-corrects stream-genuine);
// the mean of the three tracked both phases of every workload.

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// sliceLen is how long a slice loads the server; calLen is how long
	// each kernel runs in a calibration.
	sliceLen = 500 * time.Millisecond
	calLen   = 20 * time.Millisecond
	// minCalls is the fewest calls per goroutine a kernel makes in a
	// calibration, however slow the host.
	minCalls = 5
	// serial is the goroutine count of the calibrations around the
	// set-ups and the traced run, which run one request at a time.
	serial = 1

	refBytes   = 64 << 10 // inflated size of the compute kernel's deflate stream
	refVec     = 1 << 15  // float64s in the compute kernel's multiply-add loop
	memBytes   = 16 << 20 // size of each of the memory kernel's two buffers
	memWindow  = 4 << 20  // bytes the memory kernel copies per call
	echoTrips  = 16       // round trips per loopback kernel call
	echoLength = 64       // bytes per round trip
)

// nominal is each kernel's call time on the reference host, close to
// its median on the 2-vCPU Xeon the benchmark was defined on.
var nominal = [numKernels]time.Duration{1400 * time.Microsecond, 900 * time.Microsecond, 250 * time.Microsecond}

const numKernels = 3

// kernelSet is one goroutine's three kernels. The large buffers live in
// memory mapped outside the Go heap, and a call allocates nothing, so
// the kernels neither change the collector's pacing nor wait for it.
type kernelSet struct {
	// compute
	blob []byte
	src  bytes.Reader
	zr   io.ReadCloser
	out  []byte
	vec  []float64
	sink float64
	// memory
	from, to []uint64
	off      int
	// loopback
	conn net.Conn
	msg  []byte
}

func (k *kernelSet) compute() {
	k.src.Reset(k.blob)
	_ = k.zr.(flate.Resetter).Reset(&k.src, nil) // no dictionary: cannot fail
	_, _ = io.ReadFull(k.zr, k.out)              // the stream inflates to exactly refBytes
	sum := sha256.Sum256(k.out)
	s := float64(sum[0])
	for r := 0; r < 8; r++ {
		for i, v := range k.vec {
			s += v * k.vec[(i*7+r)&(refVec-1)]
		}
	}
	k.sink += s
}

func (k *kernelSet) memory() {
	const words = memWindow / 8
	from, to := k.from[k.off:k.off+words], k.to[k.off:k.off+words]
	x := uint64(k.off)
	for i, v := range from {
		to[i] = v ^ x
	}
	k.off = (k.off + words) % len(k.from)
}

// loopback fails only when the echo side is gone, which the
// calibrator's owner alone causes by closing it.
func (k *kernelSet) loopback() {
	for i := 0; i < echoTrips; i++ {
		if _, err := k.conn.Write(k.msg); err != nil {
			return
		}
		if _, err := io.ReadFull(k.conn, k.msg); err != nil {
			return
		}
	}
}

// calibrator owns maxClients kernel sets, their mapped memory and their
// loopback connections; close releases them.
type calibrator struct {
	sets   []*kernelSet
	arena  []byte
	echoes sync.WaitGroup
	conns  []net.Conn
}

func newCalibrator() (c *calibrator, err error) {
	c = &calibrator{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	per := 2*memBytes + refBytes + 8*refVec
	if c.arena, err = syscall.Mmap(-1, 0, maxClients*per, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE); err != nil {
		return nil, fmt.Errorf("mapping calibration memory: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	rng := rand.New(rand.NewSource(1))
	raw := make([]byte, refBytes)
	for i := range raw {
		raw[i] = 'a' + byte(rng.Intn(16))
	}
	var blob bytes.Buffer
	zw, _ := flate.NewWriter(&blob, flate.DefaultCompression) // valid level: cannot fail
	zw.Write(raw)
	zw.Close()
	for i := 0; i < maxClients; i++ {
		mem := c.arena[i*per : (i+1)*per]
		k := &kernelSet{
			blob: blob.Bytes(),
			from: words(mem[:memBytes]),
			to:   words(mem[memBytes : 2*memBytes]),
			out:  mem[2*memBytes : 2*memBytes+refBytes],
			vec:  unsafe.Slice((*float64)(unsafe.Pointer(&mem[2*memBytes+refBytes])), refVec),
			msg:  make([]byte, echoLength),
		}
		for j := range k.vec {
			k.vec[j] = rng.Float64()
		}
		for j := range k.from {
			k.from[j] = uint64(j) * 0x9e3779b97f4a7c15
		}
		for j := 0; j < memBytes/memWindow; j++ {
			k.memory() // faults the destination in before any call is timed
		}
		k.src.Reset(k.blob)
		k.zr = flate.NewReader(&k.src)
		if k.conn, err = c.echoPair(ln); err != nil {
			return nil, err
		}
		c.sets = append(c.sets, k)
	}
	return c, nil
}

func words(b []byte) []uint64 { return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8) }

// echoPair dials ln and serves an echo on the accepted side until the
// calibrator closes it. The dial completes from the listen backlog, so
// the accept after it does not wait.
func (c *calibrator) echoPair(ln net.Listener) (net.Conn, error) {
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	c.conns = append(c.conns, conn)
	echo, err := ln.Accept()
	if err != nil {
		return nil, err
	}
	c.conns = append(c.conns, echo)
	c.echoes.Add(1)
	go func() {
		defer c.echoes.Done()
		_, _ = io.Copy(echo, echo) // ends when close closes echo
	}()
	return conn, nil
}

// close ends the echo goroutines, waits for them and unmaps the memory.
func (c *calibrator) close() {
	for _, conn := range c.conns {
		conn.Close()
	}
	c.echoes.Wait()
	if c.arena != nil {
		_ = syscall.Munmap(c.arena) // a mapping this value made: cannot fail
	}
}

// refTimes are the kernels' median call times in one calibration.
type refTimes [numKernels]time.Duration

// measure runs each kernel on g goroutines for about calLen. Turning
// the collector off first waits for a cycle in progress to end, so the
// kernels time the host, not the garbage of the slice before.
func (c *calibrator) measure(g int) refTimes {
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	var out refTimes
	for i, call := range [numKernels]func(*kernelSet){(*kernelSet).compute, (*kernelSet).memory, (*kernelSet).loopback} {
		out[i] = c.time(g, call)
	}
	return out
}

func (c *calibrator) time(g int, call func(*kernelSet)) time.Duration {
	calls := make([][]time.Duration, g)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range calls {
		wg.Add(1)
		go func(k *kernelSet, out *[]time.Duration) {
			defer wg.Done()
			*out = make([]time.Duration, 0, 128)
			for len(*out) < minCalls || time.Since(start) < calLen {
				t := time.Now()
				call(k)
				*out = append(*out, time.Since(t))
			}
		}(c.sets[i], &calls[i])
	}
	wg.Wait()
	var all []time.Duration
	for _, cs := range calls {
		all = append(all, cs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all[len(all)/2]
}

// speed is the host's speed over an interval with calibrations before
// and after it, relative to the reference host: 0.8 means the kernels
// ran 25% longer than nominal.
func speed(before, after refTimes) float64 {
	logs := 0.0
	for k := range nominal {
		logs += math.Log(float64(2*nominal[k]) / float64(before[k]+after[k]))
	}
	return math.Exp(logs / numKernels)
}
