package service

import (
	"encoding/gob"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/mining"
)

// Federation surface of the collection server.
//
// GET /v1/replicate?since=V&gen=G streams this server's counter change
// as a gob-encoded mining.CounterDelta — the pull side of multi-site
// replication. The endpoint is privacy-free to expose: it serves exactly
// the perturbed marginal counts the server itself holds (no record ever
// existed server-side in the FRAPP trust model). `since` is the stream
// position the caller's previous pull returned (0 for first contact),
// `gen` the counter generation it was returned under; a generation
// mismatch, an unretained baseline, or since=0 all produce a FULL delta
// the caller applies from scratch, so a chain can never silently skew.
//
// A server with EnableFederation becomes a coordinator: its counter is
// the merged global view published by the federation sync loop, its
// /v1/stats carries the per-peer health table and version vector, its
// /v1/query and /v1/mine responses are stamped with the version vector
// they reflect, and it refuses direct submissions (403) — records enter
// the federation at collector sites only.

// errWindowedServer rejects durability and federation on a windowed
// server: ring expiry is wall-clock-defined, so neither a WAL replay
// nor a delta stream can reproduce the collection's content later or
// elsewhere (deltas cannot express expiry subtractions at all).
var errWindowedServer = fmt.Errorf("%w: collection is a sliding window (in-memory ring); replication and counter swaps are unavailable", ErrService)

// handleReplicate serves one replication pull.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.windowed {
		httpError(w, http.StatusConflict, errWindowedServer)
		return
	}
	since, err := queryUint64(r, "since", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	gen, err := queryUint64(r, "gen", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// A caller chained onto a different counter object — a different
	// delta epoch — gets a full delta: the object it replicated from is
	// gone, and so are its baselines. The epoch is a per-object random
	// nonce (not the cache generation, which restarts at small values
	// every process and could collide across a crash-reboot), so a stale
	// (since, gen) pair can never be satisfied incrementally against a
	// different state.
	counter := s.ctr()
	if gen != counter.DeltaEpoch() {
		since = 0
	}
	d, err := counter.DeltaSince(since)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := gob.NewEncoder(w).Encode(d); err != nil {
		// Headers are gone; the truncated body fails the client's decode.
		return
	}
}

// ReplaceCounter atomically swaps the counter the query, mining, and
// stats handlers answer from — the publish hook of a federation
// coordinator. vector is the per-peer version vector the counter
// reflects; it is stamped into /v1/query and /v1/mine responses. The
// swap invalidates the mining-result cache and bumps the counter
// generation BEFORE publishing, so no worker can pair the new counter
// with a stale cache entry (see executeMine) — even one at the same
// version as the old counter. The incoming
// counter's fingerprint — which seals its scheme, schema, and
// parameters — must match this server's contract exactly: a counter
// collected under a different scheme is rejected, never served.
func (s *Server) ReplaceCounter(c mining.LiveCounter, vector map[string]uint64) error {
	if c == nil {
		return fmt.Errorf("%w: nil counter", ErrService)
	}
	if s.store != nil {
		// The store's WAL chains off the counter object it was attached
		// to; swapping the object would silently stop persisting.
		return errStoreBacked
	}
	if s.windowed {
		// Swapping a plain merged counter into a windowed server would
		// silently drop the expiry semantics the collection advertises.
		return errWindowedServer
	}
	if c.Fingerprint() != s.scheme.Fingerprint() {
		return fmt.Errorf("%w: counter does not match this server's scheme, schema, and perturbation contract", ErrService)
	}
	gen := s.jobs.invalidateCache()
	s.met.observeCounter(c)
	s.counter.Store(&counterRef{counter: c, gen: gen, vector: vector})
	return nil
}

// EnableFederation marks this server as a federation coordinator fed by
// the given sync loop: submissions are refused (the global view is
// rebuilt from peers; locally ingested records would be silently
// discarded on the next publish) and /v1/stats gains the federation
// health block. The caller owns the coordinator's lifecycle — wire its
// publish hook to ReplaceCounter and Close it before the server.
func (s *Server) EnableFederation(coord *federation.Coordinator) error {
	if coord == nil {
		return fmt.Errorf("%w: nil coordinator", ErrService)
	}
	if s.store != nil {
		// A coordinator republishes merged counters through
		// ReplaceCounter, which a store-backed server must refuse.
		return errStoreBacked
	}
	if s.windowed {
		// ReplaceCounter refuses on a windowed server (see above), so a
		// coordinator could never publish its merged view.
		return errWindowedServer
	}
	if !s.fed.CompareAndSwap(nil, coord) {
		return fmt.Errorf("%w: federation already enabled", ErrService)
	}
	return nil
}

// Federated reports whether this server is a federation coordinator.
func (s *Server) Federated() bool { return s.fed.Load() != nil }

// Matrix returns the server's gamma-diagonal perturbation matrix — the
// zero matrix when the server runs a boolean scheme. Federation
// coordinators should be built from CounterScheme instead, which covers
// every scheme.
func (s *Server) Matrix() core.UniformMatrix { return s.matrix }

// errFederated rejects direct submissions on a coordinator.
var errFederated = fmt.Errorf("%w: federation coordinator does not accept submissions; submit to a collector site", ErrService)

func queryUint64(r *http.Request, key string, def uint64) (uint64, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad %s=%q", ErrService, key, raw)
	}
	return v, nil
}
