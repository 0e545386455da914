package evidence

import (
	"fmt"
	"sort"
)

// DiffPacks compares two packs stage-by-stage and returns human-readable
// difference lines: verdict and failed-stage changes, per-stage pass and
// bit-level score divergences, member digest changes, and model digest
// changes. Decisions are matched by trace ID when both packs share it,
// falling back to position for single-decision packs with regenerated
// IDs. An empty result means the packs agree on everything compared.
func DiffPacks(a, b *Pack) []string {
	var out []string

	out = append(out, diffMembers(a, b)...)
	out = append(out, diffModels(a, b)...)

	pairs := pairDecisions(a, b)
	for _, pr := range pairs {
		switch {
		case pr.a == nil:
			out = append(out, fmt.Sprintf("decision %s: only in second pack", pr.b.TraceID))
		case pr.b == nil:
			out = append(out, fmt.Sprintf("decision %s: only in first pack", pr.a.TraceID))
		default:
			id := pr.a.TraceID
			if pr.b.TraceID != id {
				id += " vs " + pr.b.TraceID
			}
			for _, d := range DiffDecision(*pr.a, *pr.b) {
				out = append(out, "decision "+id+": "+d)
			}
		}
	}
	return out
}

type decisionPair struct {
	a, b *DecisionRecord
}

// pairDecisions matches decisions across packs by trace ID, falling back
// to position when neither side's ID appears in the other pack (replayed
// packs carry fresh trace IDs).
func pairDecisions(a, b *Pack) []decisionPair {
	bByID := make(map[string]int, len(b.Decisions))
	for i, d := range b.Decisions {
		bByID[d.TraceID] = i
	}
	anyShared := false
	for _, d := range a.Decisions {
		if _, ok := bByID[d.TraceID]; ok {
			anyShared = true
			break
		}
	}

	var pairs []decisionPair
	if !anyShared {
		n := len(a.Decisions)
		if len(b.Decisions) > n {
			n = len(b.Decisions)
		}
		for i := 0; i < n; i++ {
			var pr decisionPair
			if i < len(a.Decisions) {
				pr.a = &a.Decisions[i]
			}
			if i < len(b.Decisions) {
				pr.b = &b.Decisions[i]
			}
			pairs = append(pairs, pr)
		}
		return pairs
	}

	usedB := make(map[int]bool, len(b.Decisions))
	for i := range a.Decisions {
		pr := decisionPair{a: &a.Decisions[i]}
		if j, ok := bByID[a.Decisions[i].TraceID]; ok {
			pr.b = &b.Decisions[j]
			usedB[j] = true
		}
		pairs = append(pairs, pr)
	}
	for j := range b.Decisions {
		if !usedB[j] {
			pairs = append(pairs, decisionPair{b: &b.Decisions[j]})
		}
	}
	return pairs
}

// DiffDecision lists the divergences between two records of one
// decision: the verdict, the failed stage, and each stage's pass bit and
// score bits. Trace IDs and elapsed times are not compared.
func DiffDecision(a, b DecisionRecord) []string {
	var out []string
	if a.Accepted != b.Accepted {
		out = append(out, fmt.Sprintf("verdict accepted=%v vs accepted=%v", a.Accepted, b.Accepted))
	}
	if a.FailedStage != b.FailedStage {
		out = append(out, fmt.Sprintf("failed stage %q vs %q", a.FailedStage, b.FailedStage))
	}
	if len(a.Stages) != len(b.Stages) {
		out = append(out, fmt.Sprintf("%d stage results vs %d", len(a.Stages), len(b.Stages)))
	}
	for i := range min(len(a.Stages), len(b.Stages)) {
		sa, sb := a.Stages[i], b.Stages[i]
		if sa.Stage != sb.Stage {
			out = append(out, fmt.Sprintf("stage %d is %q vs %q", i+1, sa.Stage, sb.Stage))
			continue
		}
		if sa.Pass != sb.Pass {
			out = append(out, fmt.Sprintf("stage %s pass=%v vs pass=%v", sa.Stage, sa.Pass, sb.Pass))
		}
		if sa.ScoreBits != sb.ScoreBits {
			out = append(out, fmt.Sprintf("stage %s score %v (bits %s) vs %v (bits %s)",
				sa.Stage, sa.Score, sa.ScoreBits, sb.Score, sb.ScoreBits))
		}
	}
	return out
}

// diffMembers reports member-set and member-digest differences.
func diffMembers(a, b *Pack) []string {
	var out []string
	aMem := memberDigests(a)
	bMem := memberDigests(b)
	for _, name := range sortedKeys(aMem) {
		db, ok := bMem[name]
		if !ok {
			out = append(out, fmt.Sprintf("member %s: only in first pack", name))
			continue
		}
		if aMem[name] != db {
			out = append(out, fmt.Sprintf("member %s: digest %s vs %s", name, aMem[name], db))
		}
	}
	for _, name := range sortedKeys(bMem) {
		if _, ok := aMem[name]; !ok {
			out = append(out, fmt.Sprintf("member %s: only in second pack", name))
		}
	}
	return out
}

func memberDigests(p *Pack) map[string]string {
	out := make(map[string]string, len(p.Manifest.Members))
	for _, m := range p.Manifest.Members {
		out[m.Name] = m.Digest
	}
	return out
}

// diffModels reports model digest differences.
func diffModels(a, b *Pack) []string {
	var out []string
	for _, k := range sortedKeys(a.Models.Digests) {
		db, ok := b.Models.Digests[k]
		if !ok {
			out = append(out, fmt.Sprintf("model %s: only in first pack", k))
			continue
		}
		if a.Models.Digests[k] != db {
			out = append(out, fmt.Sprintf("model %s: digest %s vs %s", k, a.Models.Digests[k], db))
		}
	}
	for _, k := range sortedKeys(b.Models.Digests) {
		if _, ok := a.Models.Digests[k]; !ok {
			out = append(out, fmt.Sprintf("model %s: only in second pack", k))
		}
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
