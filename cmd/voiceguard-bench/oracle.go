package main

// The reply oracle: every served reply is reduced to its verdict, failed
// stage and per-stage score bits and compared with the in-process
// reference computed at set-up.

import (
	"fmt"
	"math"
	"strings"

	"voiceguard/internal/protocol"
)

// stageBits is one stage of a reply, with its score as raw float bits.
type stageBits struct {
	Stage     string
	Pass      bool
	ScoreBits uint64
	Detail    string
}

// verdict is the comparable part of a reply.
type verdict struct {
	Accepted    bool
	FailedStage string
	Stages      []stageBits
	// Early marks a VGSP decision sent before the finish frame.
	Early bool
}

// verdictOf reduces a reply to its verdict.
func verdictOf(r *protocol.VerifyResponse, early bool) verdict {
	v := verdict{Accepted: r.Accepted, FailedStage: r.FailedStage, Early: early}
	for _, st := range r.Stages {
		v.Stages = append(v.Stages, stageBits{
			Stage: st.Stage, Pass: st.Pass, ScoreBits: math.Float64bits(st.Score), Detail: st.Detail,
		})
	}
	return v
}

// String renders the verdict compactly.
func (v verdict) String() string {
	var b strings.Builder
	if v.Accepted {
		b.WriteString("ACCEPT")
	} else {
		b.WriteString("REJECT at " + v.FailedStage)
	}
	if v.Early {
		b.WriteString(" (early)")
	}
	fmt.Fprintf(&b, " over %d stages", len(v.Stages))
	return b.String()
}

// diff returns nil when got equals the reference v bit for bit, and an
// error naming the first difference otherwise.
func (v verdict) diff(got verdict) error {
	switch {
	case v.Accepted != got.Accepted || v.FailedStage != got.FailedStage || v.Early != got.Early:
		return fmt.Errorf("reply %v, reference %v", got, v)
	case len(v.Stages) != len(got.Stages):
		return fmt.Errorf("reply has %d stages, reference %d", len(got.Stages), len(v.Stages))
	}
	for i, want := range v.Stages {
		if got.Stages[i] != want {
			return fmt.Errorf("stage %d: reply %+v, reference %+v", i, got.Stages[i], want)
		}
	}
	return nil
}

// outcome is what a client got back for one request.
type outcome struct {
	resp  *protocol.VerifyResponse
	early bool
	err   error
}

// judge returns nil when a served reply is the correct answer to it.
func (it *item) judge(o outcome) error {
	if o.err != nil {
		return o.err
	}
	if o.resp.TraceID != it.id {
		return fmt.Errorf("reply carries trace ID %q, request %q", o.resp.TraceID, it.id)
	}
	return it.want.diff(verdictOf(o.resp, o.early))
}
