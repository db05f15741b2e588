package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/mining"
	"repro/internal/query"
)

// The interactive query endpoint: POST /v1/query answers a batch of
// filter-count queries (attr=value conjunctions) with reconstructed
// estimates and 95% confidence intervals, straight from the live
// sharded counter — never a scan over stored records (the server does
// not store records at all). Per-batch cost is scheme-dependent: gamma
// answers in O(#filters) merged-shard histogram lookups; the boolean
// schemes sweep their sparse joint histogram of DISTINCT perturbed rows
// (their minimal sufficient state), so a batch costs
// O(distinct rows × #filters) — still record-free and bounded by the
// boolean domain, but not size-independent.
//
// Results follow the same snapshot-version discipline as mining jobs:
// every response reports the (counter generation, snapshot version)
// pair it is exact for, the version read BEFORE the counter sweep, so a
// client that still observes the same pair in /v1/stats may keep
// reusing the response. The generation matters because a counter swap
// restarts the version line; the version alone could alias two
// different collections across a swap. Queries are cheap enough
// (microseconds against the materialized histograms) that no
// server-side result cache is needed — the stamps exist so CLIENTS can
// cache.

// defaultQueryLimit caps the number of filters in one batch.
const defaultQueryLimit = 1024

// QueryFilter is one conjunction of attribute=category conditions on
// the wire: an object mapping attribute names to category names, in the
// same vocabulary as /v1/schema. The empty object matches every record.
type QueryFilter map[string]string

// QueryRequest is the body of POST /v1/query. Filters are kept raw so
// the handler can reject duplicate attribute keys, which encoding/json
// would silently collapse.
type QueryRequest struct {
	Filters []json.RawMessage `json:"filters"`
	// Window restricts the estimates to the records of the last Window
	// of wall-clock time (a Go duration string, e.g. "24h"), rounded up
	// to whole ring buckets. Only valid on a windowed collection; empty
	// means the full collection.
	Window string `json:"window,omitempty"`
}

// QueryEstimate is one reconstructed count estimate on the wire.
type QueryEstimate struct {
	// Count is the point estimate of the number of ORIGINAL records
	// matching the filter; it may be negative or exceed N under heavy
	// noise at small collection sizes.
	Count float64 `json:"count"`
	// StdErr is the estimator's standard error; Lo and Hi bound the 95%
	// confidence interval (normal approximation, unclamped).
	StdErr float64 `json:"stderr"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	// N is the number of perturbed records the estimate is based on —
	// identical for every estimate of one response (single sweep).
	N int `json:"n"`
}

// QueryResponse answers one batch of filters.
type QueryResponse struct {
	// Records is the record count every estimate in this response is
	// based on.
	Records int `json:"records"`
	// SnapshotVersion is the counter version this response is exact
	// for, read before the counter sweep: Records >= SnapshotVersion,
	// and the response stays exact as long as /v1/stats still reports
	// the same (counter_generation, snapshot_version) pair.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// CounterGeneration counts counter swaps. A swap RESTARTS the
	// version line (at the new counter's record count), so a version
	// match alone could pair this response with a different post-swap
	// collection; the generation disambiguates, exactly as it does for
	// the server's internal mining-result cache.
	CounterGeneration uint64 `json:"counter_generation"`
	// VersionVector, present only on a federation coordinator, maps peer
	// URL → replication position: exactly which per-site states the
	// merged counter these estimates were answered from reflects.
	VersionVector map[string]uint64 `json:"version_vector,omitempty"`
	// Window echoes the request's window restriction on a windowed
	// collection: Records and every estimate cover only the newest
	// ceil(window/bucket) ring buckets. Absent on unwindowed queries.
	Window string `json:"window,omitempty"`
	// Estimates are in filter order.
	Estimates []QueryEstimate `json:"estimates"`
}

// WithQueryLimit caps how many filters one /v1/query batch may carry.
// Values <= 0 (and the default) mean 1024.
func WithQueryLimit(n int) Option {
	return func(c *serverConfig) { c.queryLimit = n }
}

// QueryLimit returns the per-batch filter cap.
func (s *Server) QueryLimit() int { return s.queryLimit }

// decodeFilter parses one wire filter object into a canonical itemset
// through the duplicate-rejecting attribute walk (walkAttrObject): a
// filter that names an attribute twice is a contradiction the client
// should hear about, not a silently rewritten query.
func (s *Server) decodeFilter(raw json.RawMessage) (mining.Itemset, error) {
	var items []mining.Item
	err := s.walkAttrObject(raw, "filter", func(j int, name string, dec *json.Decoder) error {
		valTok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("%w: bad filter JSON: %v", ErrService, err)
		}
		cat, ok := valTok.(string)
		if !ok {
			return fmt.Errorf("%w: attribute %q condition must be a category name", ErrService, name)
		}
		v := s.schema.Attrs[j].CategoryIndex(cat)
		if v < 0 {
			return fmt.Errorf("%w: unknown category %q for attribute %q", ErrService, cat, name)
		}
		items = append(items, mining.Item{Attr: j, Value: v})
		return nil
	})
	if err != nil {
		return nil, err
	}
	set, err := mining.NewItemset(items...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrService, err)
	}
	return set, nil
}

// attrIndex resolves an attribute name to its schema position, -1 if
// unknown. Linear scan — schemas have a handful of attributes.
func (s *Server) attrIndex(name string) int {
	for j, a := range s.schema.Attrs {
		if a.Name == name {
			return j
		}
	}
	return -1
}

// handleQuery answers a batch of filter-count queries from the live
// counter. The handler never touches stored records — the server keeps
// none — and never snapshots: the counter sweep inside CountAll merges
// only the histograms the batch needs, one shard lock at a time.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var qr QueryRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&qr); err != nil && !errors.Is(err, io.EOF) {
		httpBodyError(w, err, "bad JSON")
		return
	}
	if len(qr.Filters) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("%w: empty filter batch", ErrService))
		return
	}
	if len(qr.Filters) > s.queryLimit {
		httpError(w, http.StatusBadRequest, fmt.Errorf("%w: batch of %d filters exceeds limit %d", ErrService, len(qr.Filters), s.queryLimit))
		return
	}
	filters := make([]mining.Itemset, len(qr.Filters))
	for i, raw := range qr.Filters {
		f, err := s.decodeFilter(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("filter %d: %w", i, err))
			return
		}
		filters[i] = f
	}
	// One load yields a consistent (counter, generation) pair even if a
	// counter swap lands mid-request.
	ref := s.counter.Load()
	if qr.Window != "" {
		s.handleWindowedQuery(w, ref, filters, qr.Window)
		return
	}
	counter := ref.counter
	if counter.N() == 0 {
		httpError(w, http.StatusConflict, errNoSubmissions)
		return
	}
	// The version is read BEFORE the sweep (the SnapshotVersioned
	// convention): every record visible at this version is fully inside
	// some shard and therefore inside the sweep, so Records >= version
	// and the response is exact for it.
	version := counter.Version()
	// The live engine answers through the counter's own scheme
	// estimator, so this one path serves gamma, MASK, and cut-and-paste
	// collections alike.
	eng, err := query.NewLiveCounterEngine(counter)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	ests, err := eng.CountAll(filters)
	if err != nil {
		// Filters were validated above and the collection is non-empty
		// (and can only grow), so any estimator error is a server bug.
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	resp := QueryResponse{
		Records:           ests[0].N,
		SnapshotVersion:   version,
		CounterGeneration: ref.gen,
		VersionVector:     ref.vector,
		Estimates:         make([]QueryEstimate, len(ests)),
	}
	for i, e := range ests {
		resp.Estimates[i] = QueryEstimate{Count: e.Count, StdErr: e.StdErr, Lo: e.Lo, Hi: e.Hi, N: e.N}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleWindowedQuery answers a filter batch restricted to the newest
// ceil(window/bucket) ring buckets of a windowed collection. The
// counter returns the version together with the estimates, read under
// the same lock as the sweep: windowed content is non-monotonic (a ring
// rotation REMOVES records), so the unwindowed path's "version read
// before the sweep stays valid for strictly newer content" argument
// does not apply and the stamp must be exact.
func (s *Server) handleWindowedQuery(w http.ResponseWriter, ref *counterRef, filters []mining.Itemset, windowStr string) {
	window, err := time.ParseDuration(windowStr)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("%w: bad window %q: %v", ErrService, windowStr, err))
		return
	}
	if window <= 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("%w: window %q must be positive", ErrService, windowStr))
		return
	}
	wv, ok := ref.counter.(mining.WindowView)
	if !ok {
		httpError(w, http.StatusBadRequest, fmt.Errorf("%w: collection is not windowed; query without the window field", ErrService))
		return
	}
	ests, n, version, err := wv.EstimatesWindow(filters, window)
	if err != nil {
		// Filters were validated by the caller, so estimator errors are
		// server bugs, as on the unwindowed path.
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if n == 0 {
		httpError(w, http.StatusConflict, fmt.Errorf("%w (no records in the last %s)", errNoSubmissions, windowStr))
		return
	}
	resp := QueryResponse{
		Records:           n,
		SnapshotVersion:   version,
		CounterGeneration: ref.gen,
		VersionVector:     ref.vector,
		Window:            windowStr,
		Estimates:         make([]QueryEstimate, len(ests)),
	}
	// Intervals use the same 95% normal quantile the query engine's own
	// estimates carry, so windowed and unwindowed responses are directly
	// comparable.
	for i, pe := range ests {
		resp.Estimates[i] = QueryEstimate{
			Count:  pe.Count,
			StdErr: pe.StdErr,
			Lo:     pe.Count - query.Z95*pe.StdErr,
			Hi:     pe.Count + query.Z95*pe.StdErr,
			N:      n,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
