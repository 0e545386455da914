package server

// Fast ASV serving path: compiled-model scoring and a hot speaker-model
// cache. The server owns the wiring — metric plumbing and the option
// surface — while the mechanics live in internal/gmm and internal/core.

import (
	"errors"
	"fmt"

	"voiceguard/internal/core"
	"voiceguard/internal/gmm"
	"voiceguard/internal/telemetry"
)

// WithASVFastPath serves speaker verification through the compiled
// top-C shortlist path (gmm.DefaultShortlistC components per frame)
// instead of exact per-frame scoring. Scores stay within
// gmm.ShortlistEpsilon nat/frame of the exact path; the pipeline is
// otherwise unchanged. Requires the attached system to carry a GMM-UBM
// identity stage — New fails otherwise.
func WithASVFastPath() Option {
	return func(s *Server) { s.asvFast = true }
}

// WithASVModelCache sizes the hot compiled-speaker-model LRU (default
// gmm.DefaultModelCacheSize). Only meaningful together with
// WithASVFastPath; cache traffic is exported through the model-cache
// metric families.
func WithASVModelCache(n int) Option {
	return func(s *Server) { s.asvCacheSize = n }
}

// enableFastASV compiles the identity stage's scoring models and wires
// the cache with its metric families. Called from New after the
// registry exists.
func (s *Server) enableFastASV() error {
	id := s.system.Identity
	if id == nil {
		return errors.New("server: ASV fast path requires an identity stage (enable -asv)")
	}
	r := s.registry
	metrics := gmm.CacheMetrics{
		Hits:          r.Counter(MetricASVModelCacheEvents, telemetry.Labels{"event": "hit"}),
		Misses:        r.Counter(MetricASVModelCacheEvents, telemetry.Labels{"event": "miss"}),
		Evictions:     r.Counter(MetricASVModelCacheEvents, telemetry.Labels{"event": "eviction"}),
		ResidentBytes: r.Gauge(MetricASVModelCacheBytes, nil),
	}
	r.SetHelp(MetricASVModelCacheEvents, "compiled speaker-model cache traffic by event")
	r.SetHelp(MetricASVModelCacheBytes, "bytes held by compiled speaker models resident in the cache")
	cache := gmm.NewModelCache(s.asvCacheSize, metrics)
	s.asvCache = cache
	s.asvCacheHits = metrics.Hits
	s.asvCacheMiss = metrics.Misses
	if err := id.EnableFastPath(core.FastPathConfig{Cache: cache}); err != nil {
		return fmt.Errorf("server: enabling ASV fast path: %w", err)
	}
	return nil
}
