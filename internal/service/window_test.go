package service

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/mining"
	"repro/internal/store"
)

// Sliding-window surface of the collection server, over HTTP: full-ring
// windowed reads must equal unwindowed ones (the mining-layer ring-union
// property lifted through the wire format), rotation must expire records
// from query and mine results, and every durability/federation surface
// must refuse a windowed collection.

// svcClock is a mutex-guarded fake clock for driving ring rotation.
type svcClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *svcClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *svcClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// startWindowedServer builds a windowed server on a deterministic clock
// (installed before any traffic) plus an HTTP front.
func startWindowedServer(t *testing.T, buckets int, bucket time.Duration, opts ...Option) (*Server, *Client, *svcClock) {
	t.Helper()
	srv, ts := startServer(t, append([]Option{WithWindow(buckets, bucket)}, opts...)...)
	clock := &svcClock{t: time.Unix(1700000000, 0)}
	srv.ctr().(*mining.WindowedCounter).SetNowFunc(clock.Now)
	return srv, wireClient(t, ts), clock
}

// windowProbeFilters is a spread of wire filters over serviceSchema:
// the match-all filter, every single-attribute condition, and one pair.
func windowProbeFilters(t *testing.T, srv *Server) []QueryFilter {
	t.Helper()
	schema := srv.schema
	filters := []QueryFilter{{}}
	for _, a := range schema.Attrs {
		for _, cat := range a.Categories {
			filters = append(filters, QueryFilter{a.Name: cat})
		}
	}
	filters = append(filters, QueryFilter{
		schema.Attrs[0].Name: schema.Attrs[0].Categories[1],
		schema.Attrs[2].Name: schema.Attrs[2].Categories[3],
	})
	return filters
}

// submitSeeded perturbs and submits n deterministic records through the
// client. Identical (n, seed) pairs submit bit-identical perturbed
// batches, so two servers fed the same pair hold the same counts.
func submitSeeded(t *testing.T, c *Client, n int, seed int64) {
	t.Helper()
	recs := wireRecords(c.Schema(), n, seed)
	if err := c.SubmitBatch(recs, rand.New(rand.NewSource(seed*7+1))); err != nil {
		t.Fatal(err)
	}
}

func assertQueriesMatch(t *testing.T, got, want *QueryResponse, context string) {
	t.Helper()
	if got.Records != want.Records {
		t.Fatalf("%s: records %d != %d", context, got.Records, want.Records)
	}
	if len(got.Estimates) != len(want.Estimates) {
		t.Fatalf("%s: %d estimates != %d", context, len(got.Estimates), len(want.Estimates))
	}
	for i := range got.Estimates {
		g, w := got.Estimates[i], want.Estimates[i]
		for _, d := range []struct {
			name      string
			got, want float64
		}{
			{"count", g.Count, w.Count},
			{"stderr", g.StdErr, w.StdErr},
			{"lo", g.Lo, w.Lo},
			{"hi", g.Hi, w.Hi},
		} {
			if math.Abs(d.got-d.want) > 1e-9 {
				t.Errorf("%s: filter %d %s = %v, want %v", context, i, d.name, d.got, d.want)
			}
		}
		if g.N != w.N {
			t.Errorf("%s: filter %d n = %d, want %d", context, i, g.N, w.N)
		}
	}
}

// TestWindowedQueryFullRingMatchesUnwindowed: for every scheme, a
// windowed query spanning the whole ring must answer byte-for-byte the
// same estimates as the unwindowed query on the same server — the
// HTTP-level form of the ring-union equivalence (windows are a
// restriction, never a different estimator).
func TestWindowedQueryFullRingMatchesUnwindowed(t *testing.T) {
	for _, scheme := range mining.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			srv, client, _ := startWindowedServer(t, 4, time.Minute,
				WithScheme(scheme), WithShards(3))
			submitSeeded(t, client, 240, 404)
			filters := windowProbeFilters(t, srv)

			plain, err := client.QueryAll(filters)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Window != "" {
				t.Errorf("unwindowed response echoes window %q", plain.Window)
			}
			// 4m covers the exact ring; 1h clamps to it. Both must match.
			for _, window := range []string{"4m", "1h"} {
				windowed, err := client.QueryWindow(filters, window)
				if err != nil {
					t.Fatal(err)
				}
				if windowed.Window != window {
					t.Errorf("window echo = %q, want %q", windowed.Window, window)
				}
				assertQueriesMatch(t, windowed, plain, "window "+window)
			}
		})
	}
}

// TestWindowedQueryRotationOverHTTP: after the clock rotates old records
// out of the selected window, a windowed query must equal the query a
// fresh server holding only the surviving submissions answers — and once
// the ring fully expires them, the unwindowed view must shrink too.
func TestWindowedQueryRotationOverHTTP(t *testing.T) {
	srv, client, clock := startWindowedServer(t, 4, time.Minute, WithShards(3))
	_, refTS := startServer(t, WithShards(3))
	refClient := wireClient(t, refTS)

	submitSeeded(t, client, 150, 11) // old cohort, head bucket 0
	clock.Advance(2 * time.Minute)   // old cohort now 2 buckets back
	submitSeeded(t, client, 90, 22)  // young cohort, head bucket 2
	// The reference server holds ONLY the young cohort, identically
	// perturbed (same records, same client rng seed).
	submitSeeded(t, refClient, 90, 22)

	filters := windowProbeFilters(t, srv)
	ref, err := refClient.QueryAll(filters)
	if err != nil {
		t.Fatal(err)
	}
	// A 1-bucket window selects exactly the young cohort. 90s rounds up
	// to 2 buckets, whose union is still only the young cohort (the
	// bucket between the cohorts is empty).
	for _, window := range []string{"1m", "90s"} {
		got, err := client.QueryWindow(filters, window)
		if err != nil {
			t.Fatal(err)
		}
		assertQueriesMatch(t, got, ref, "window "+window)
	}
	// The full ring still holds both cohorts.
	full, err := client.QueryAll(filters)
	if err != nil {
		t.Fatal(err)
	}
	if full.Records != 240 {
		t.Fatalf("full-ring records = %d, want 240", full.Records)
	}

	// Advance until the old cohort falls out of retention entirely (age
	// 5m > 4 buckets); the young cohort (age 3m) survives. Now even the
	// UNWINDOWED view must equal the reference server.
	clock.Advance(3 * time.Minute)
	expired, err := client.QueryAll(filters)
	if err != nil {
		t.Fatal(err)
	}
	assertQueriesMatch(t, expired, ref, "post-expiry full view")

	// And once everything expires, the collection reports empty (409).
	clock.Advance(5 * time.Minute)
	if _, err := client.QueryAll(filters); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("query on fully expired ring: %v, want 409", err)
	}
	if n := srv.N(); n != 0 {
		t.Fatalf("N after full expiry = %d, want 0", n)
	}
}

// TestWindowedMineJobs: a mining job with a full-ring window must return
// the same model as the unwindowed mine; spelling the same window
// differently ("240s" vs "4m") must hit the result cache; a window on an
// unwindowed collection must fail the job with a client error.
func TestWindowedMineJobs(t *testing.T) {
	srv, client, clock := startWindowedServer(t, 4, time.Minute, WithShards(3))
	submitSeeded(t, client, 300, 1234)
	ctx := context.Background()

	plain, err := client.Mine(0.05, 0.3, 50)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := client.MineAsync(ctx, MineParams{MinSupport: 0.05, MinConf: 0.3, Limit: 50, Window: "4m"})
	if err != nil {
		t.Fatal(err)
	}
	if windowed.Window != "4m" {
		t.Errorf("mine window echo = %q, want 4m", windowed.Window)
	}
	if plain.Window != "" {
		t.Errorf("unwindowed mine echoes window %q", plain.Window)
	}
	if windowed.Records != plain.Records {
		t.Fatalf("windowed mine records = %d, want %d", windowed.Records, plain.Records)
	}
	if len(windowed.Itemsets) != len(plain.Itemsets) {
		t.Fatalf("windowed mine found %d itemsets, unwindowed %d", len(windowed.Itemsets), len(plain.Itemsets))
	}
	for i := range windowed.Itemsets {
		g, w := windowed.Itemsets[i], plain.Itemsets[i]
		if math.Abs(g.Support-w.Support) > 1e-9 {
			t.Errorf("itemset %d support %v != %v", i, g.Support, w.Support)
		}
		if len(g.Items) != len(w.Items) {
			t.Errorf("itemset %d arity %d != %d", i, len(g.Items), len(w.Items))
		}
	}

	// Same window, different spelling: the cache keys on the parsed
	// duration, so this must be a hit, not a second Apriori run.
	runs := srv.AprioriRuns()
	jr, err := client.SubmitMineJob(MineParams{MinSupport: 0.05, MinConf: 0.3, Limit: 50, Window: "240s"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := client.AwaitMineJob(ctx, jr.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !done.Cached {
		t.Error("mine with re-spelled window was not served from cache")
	}
	if srv.AprioriRuns() != runs {
		t.Errorf("re-spelled window ran Apriori again (%d -> %d runs)", runs, srv.AprioriRuns())
	}

	// A sub-ring window after expiring the first cohort mines only the
	// survivors: push a second cohort, expire the first, and the model
	// record count must drop to the survivor count.
	clock.Advance(3 * time.Minute)
	submitSeeded(t, client, 120, 777)
	sub, err := client.MineAsync(ctx, MineParams{MinSupport: 0.05, MinConf: 0.3, Limit: 50, Window: "1m"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Records != 120 {
		t.Fatalf("1m-window mine records = %d, want 120 (survivors only)", sub.Records)
	}

	// Window on an unwindowed collection: the job must fail cleanly.
	_, plainTS := startServer(t, WithShards(2))
	plainClient := wireClient(t, plainTS)
	submitSeeded(t, plainClient, 50, 5)
	if _, err := plainClient.MineAsync(ctx, MineParams{MinSupport: 0.05, Window: "1m"}); err == nil ||
		!strings.Contains(err.Error(), "not windowed") {
		t.Fatalf("windowed mine on plain collection: %v, want 'not windowed'", err)
	}
	// Malformed window: rejected at submission (validate), not at run.
	if _, err := plainClient.SubmitMineJob(MineParams{MinSupport: 0.05, Window: "soon"}); err == nil {
		t.Fatal("malformed window accepted at job submission")
	}
}

// TestWindowedQueryRejections: the window query parameter is validated
// like any client input — bad duration, non-positive duration, and a
// window on an unwindowed collection are all 400s, and an empty window
// is the usual 409, never an estimator error.
func TestWindowedQueryRejections(t *testing.T) {
	_, plainTS := startServer(t, WithShards(2))
	plainClient := wireClient(t, plainTS)
	submitSeeded(t, plainClient, 30, 9)
	filters := []QueryFilter{{}}

	for _, tc := range []struct {
		client *Client
		window string
	}{
		{plainClient, "1m"},   // not a windowed collection
		{plainClient, "argh"}, // unparseable duration
		{plainClient, "-5m"},  // non-positive duration
	} {
		if _, err := tc.client.QueryWindow(filters, tc.window); err == nil ||
			!strings.Contains(err.Error(), "400") {
			t.Errorf("window %q: %v, want 400", tc.window, err)
		}
	}

	_, winClient, _ := startWindowedServer(t, 2, time.Minute, WithShards(2))
	if _, err := winClient.QueryWindow(filters, "1m"); err == nil ||
		!strings.Contains(err.Error(), "409") {
		t.Errorf("window query on empty collection: %v, want 409", err)
	}
}

// TestWindowedDurabilityGates: every surface that would persist,
// restore, replicate, or federate a windowed collection must refuse —
// wall-clock expiry cannot be replayed or replicated.
func TestWindowedDurabilityGates(t *testing.T) {
	srv, client, _ := startWindowedServer(t, 2, time.Minute, WithShards(2))
	submitSeeded(t, client, 40, 3)

	other, err := mining.NewShardedCounter(srv.CounterScheme(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ReplaceCounter(other, nil); !errors.Is(err, ErrService) {
		t.Errorf("ReplaceCounter = %v, want windowed refusal", err)
	}
	coord, err := federation.NewCoordinator(srv.CounterScheme(), []string{"http://127.0.0.1:1"},
		func(mining.LiveCounter, map[string]uint64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := srv.EnableFederation(coord); !errors.Is(err, ErrService) {
		t.Errorf("EnableFederation = %v, want windowed refusal", err)
	}
	if _, err := client.Replicate(0, 0); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("replicate = %v, want 409", err)
	}
	// And the windowed+store combination is rejected at construction.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := NewServer(serviceSchema(t), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50},
		WithWindow(2, time.Minute), WithStore(st)); err == nil {
		t.Error("windowed config validated with a store attached")
	}
}
