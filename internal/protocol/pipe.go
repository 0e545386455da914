package protocol

import (
	"io"
	"sync"

	"voiceguard/internal/gunzip"
	"voiceguard/internal/parallel"
)

// The inflate pipeline. A helper goroutine owns the gzip reader, and
// with it every read of the request body; it copies inflated bytes
// into the slots of a pipe and hands them to the parser in order, the
// error that ended the stream on the last one. The slots go round: the
// parser hands each back once it has consumed it.
//
// A genuine upload opens with its sensor arrays, which parse slower
// than they inflate, and goes on with base64 audio, which inflates
// slower than it parses; the helper needs about 256 KiB of lead to
// stay busy through the first part. A pipe allocates its slots only
// as it first needs them, so short bodies keep fewer.
const (
	slotSize  = 32 << 10
	pipeSlots = 8
)

// slot is one buffer of inflated bytes.
type slot struct {
	buf []byte // slotSize bytes, allocated apart so it fills whole pages
	n   int    // bytes filled
	// err ends the stream after buf[:n]: io.EOF at its end or at the
	// size cap, or the read or inflate error.
	err error
}

// pipe carries one body's inflated bytes from the helper to the parser.
// Pipes are kept for reuse, so a pipelined decode allocates no buffer.
type pipe struct {
	// full and free each have room for every slot, so no send blocks.
	full, free chan *slot
	made       int   // slots allocated, at most pipeSlots
	cur        *slot // the slot the parser reads, once it has one
	stop       chan struct{}
	wg         sync.WaitGroup
}

// pipes holds the idle pipes; busy counts those in use.
var pipes struct {
	sync.Mutex
	idle []*pipe
	busy int
}

// startPipe inflates z's first chunk and, when the stream goes on past
// it, hands the rest of z to a helper goroutine and returns the pipe it
// fills; left is the size cap's allowance. It returns nil, and the
// caller decodes inline, when the stream ends inside its first chunk or
// when Workers()/2 pipes are already busy: each pipeline needs a second
// CPU, so a single-CPU process never starts one.
func startPipe(z *gunzip.Reader, left int64) *pipe {
	if _, err := z.Peek(); err != nil || z.Done() {
		return nil
	}
	pipes.Lock()
	if pipes.busy >= parallel.Workers()/2 {
		pipes.Unlock()
		return nil
	}
	pipes.busy++
	var p *pipe
	if n := len(pipes.idle); n > 0 {
		p = pipes.idle[n-1]
		pipes.idle = pipes.idle[:n-1]
	}
	pipes.Unlock()
	if p == nil {
		p = &pipe{full: make(chan *slot, pipeSlots), free: make(chan *slot, pipeSlots)}
	}
	p.stop = make(chan struct{})
	p.wg.Add(1)
	go p.inflate(z, left)
	return p
}

// inflate is the helper: it fills free slots from z until the stream
// ends, fails or reaches the size cap, and stops early only when the
// parser closes the pipe. Like the inline decoder, it asks z for more
// before it checks the cap, so an error z meets before its next byte
// still counts once the cap is reached.
func (p *pipe) inflate(z *gunzip.Reader, left int64) {
	defer p.wg.Done()
	for {
		var s *slot
		if len(p.free) == 0 && p.made < pipeSlots {
			s = &slot{buf: make([]byte, slotSize)}
			p.made++
		} else {
			select {
			case s = <-p.free:
			case <-p.stop:
				return
			}
		}
		s.n, s.err = 0, nil
		for s.n < len(s.buf) && s.err == nil {
			buf, err := z.Peek()
			switch {
			case err != nil:
				s.err = err
			case left == 0:
				s.err = io.EOF
			default:
				if int64(len(buf)) > left {
					buf = buf[:left]
				}
				n := copy(s.buf[s.n:], buf)
				z.Discard(n)
				s.n += n
				left -= int64(n)
			}
		}
		p.full <- s
		if s.err != nil {
			return
		}
	}
}

// next hands the parser's slot back and returns the next one's bytes,
// or, once the last slot is used up, the error that ended the stream.
func (p *pipe) next() ([]byte, error) {
	if s := p.cur; s != nil {
		if s.err != nil {
			return nil, s.err
		}
		p.free <- s
	}
	s := <-p.full
	p.cur = s
	if s.n == 0 {
		return nil, s.err
	}
	return s.buf[:s.n], nil
}

// close stops and joins the helper, gathers the slots and puts the
// pipe back for reuse.
func (p *pipe) close() {
	close(p.stop)
	p.wg.Wait()
	if p.cur != nil {
		p.free <- p.cur
		p.cur = nil
	}
	for len(p.full) > 0 {
		p.free <- <-p.full
	}
	pipes.Lock()
	pipes.busy--
	pipes.idle = append(pipes.idle, p)
	pipes.Unlock()
}
