package main

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"voiceguard/internal/protocol"
)

func referenceReply() *protocol.VerifyResponse {
	return &protocol.VerifyResponse{
		Accepted: true,
		TraceID:  "w-1-00",
		Stages: []protocol.StageJSON{
			{Stage: "distance-verification", Pass: true, Score: 0.25, Detail: "d"},
			{Stage: "speaker-identity-verification", Pass: true, Score: 1.5, Detail: "llr"},
		},
	}
}

func TestJudge(t *testing.T) {
	it := &item{id: "w-1-00", want: verdictOf(referenceReply(), false)}
	if err := it.judge(outcome{resp: referenceReply()}); err != nil {
		t.Fatalf("reference reply judged wrong: %v", err)
	}
	tamper := map[string]func(*protocol.VerifyResponse) outcome{
		"score bit": func(r *protocol.VerifyResponse) outcome {
			r.Stages[1].Score = math.Nextafter(r.Stages[1].Score, 2)
			return outcome{resp: r}
		},
		"verdict": func(r *protocol.VerifyResponse) outcome {
			r.Accepted, r.FailedStage = false, r.Stages[1].Stage
			return outcome{resp: r}
		},
		"stage dropped": func(r *protocol.VerifyResponse) outcome {
			r.Stages = r.Stages[:1]
			return outcome{resp: r}
		},
		"early flag": func(r *protocol.VerifyResponse) outcome { return outcome{resp: r, early: true} },
		"trace ID": func(r *protocol.VerifyResponse) outcome {
			r.TraceID = "w-1-01"
			return outcome{resp: r}
		},
		"transport": func(*protocol.VerifyResponse) outcome { return outcome{err: errors.New("reset")} },
	}
	for name, f := range tamper {
		if err := it.judge(f(referenceReply())); err == nil {
			t.Errorf("%s: tampered reply judged correct", name)
		}
	}
}

// doerFunc adapts a function to the doer interface.
type doerFunc func(ctx context.Context, it *item) outcome

func (f doerFunc) do(ctx context.Context, it *item) outcome { return f(ctx, it) }

func TestTamperedReplyCountsAsFailed(t *testing.T) {
	it := &item{id: "w-1-00", want: verdictOf(referenceReply(), false)}
	var n atomic.Int64
	d := doerFunc(func(context.Context, *item) outcome {
		r := referenceReply()
		if n.Add(1)%2 == 0 {
			r.Stages[0].Score = -r.Stages[0].Score
		}
		return outcome{resp: r}
	})
	res := runPhase(context.Background(), phase{clients: 1, requests: 6}, []*item{it}, d, nil)
	if res.attempted != 6 || res.failed != 3 || res.done() != 3 || res.firstFailure == nil {
		t.Fatalf("attempted %d failed %d timed %d first failure %v; want 6, 3, 3 and an error",
			res.attempted, res.failed, res.done(), res.firstFailure)
	}
}
