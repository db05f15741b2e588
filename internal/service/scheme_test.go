package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/mining"
	"repro/internal/query"
	"repro/internal/store"
)

// End-to-end scheme negotiation: frapp-server -scheme mask (and
// cutpaste) must serve submit/query/mine/mine-jobs/replicate through
// the whole stack, with /v1/query estimates matching the scheme's
// OFFLINE counter to 1e-9, and federation merging same-scheme sites
// only.

// schemeCase drives one scheme through the HTTP stack: generate
// original records, perturb them exactly as the client library would
// (same mechanism, same seeded stream), and build the scheme's offline
// counter over the identical perturbed data.
type schemeCase struct {
	name string
	// offline builds the paper's record-scan counter over the perturbed
	// stream that a client with this seed would have submitted.
	offline func(t *testing.T, schema *dataset.Schema, gamma float64, db *dataset.Database, seed int64) mining.SupportCounter
}

func schemeCases() []schemeCase {
	return []schemeCase{
		{
			name: mining.SchemeGamma,
			offline: func(t *testing.T, schema *dataset.Schema, gamma float64, db *dataset.Database, seed int64) mining.SupportCounter {
				m, err := core.NewGammaDiagonal(schema.DomainSize(), gamma)
				if err != nil {
					t.Fatal(err)
				}
				p, err := core.NewGammaPerturber(schema, m)
				if err != nil {
					t.Fatal(err)
				}
				pdb, err := core.PerturbDatabase(db, p, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				c, err := mining.NewGammaCounter(pdb, m)
				if err != nil {
					t.Fatal(err)
				}
				return c
			},
		},
		{
			name: mining.SchemeMask,
			offline: func(t *testing.T, schema *dataset.Schema, gamma float64, db *dataset.Database, seed int64) mining.SupportCounter {
				bm, err := core.NewBoolMapping(schema)
				if err != nil {
					t.Fatal(err)
				}
				ms, err := core.NewMaskSchemeForPrivacy(bm, gamma)
				if err != nil {
					t.Fatal(err)
				}
				bdb, err := ms.PerturbDatabase(db, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				return &mining.MaskCounter{Perturbed: bdb, Scheme: ms}
			},
		},
		{
			name: mining.SchemeCutPaste,
			offline: func(t *testing.T, schema *dataset.Schema, gamma float64, db *dataset.Database, seed int64) mining.SupportCounter {
				bm, err := core.NewBoolMapping(schema)
				if err != nil {
					t.Fatal(err)
				}
				rho, err := core.FindRhoForGamma(bm, 3, gamma, 0.494)
				if err != nil {
					t.Fatal(err)
				}
				cs, err := core.NewCutPasteScheme(bm, 3, rho)
				if err != nil {
					t.Fatal(err)
				}
				bdb, err := cs.PerturbDatabase(db, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				return &mining.CutPasteCounter{Perturbed: bdb, Scheme: cs}
			},
		},
	}
}

// randomDB draws n uniform records over the service schema.
func randomDB(t *testing.T, schema *dataset.Schema, n int, seed int64) *dataset.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := dataset.NewDatabase(schema, n)
	for i := 0; i < n; i++ {
		rec := make(dataset.Record, schema.M())
		for j, a := range schema.Attrs {
			rec[j] = rng.Intn(a.Cardinality())
		}
		db.Records = append(db.Records, rec)
	}
	return db
}

// TestSchemeEndToEnd is the acceptance run for every scheme: a server
// under -scheme X serves submit, query, mine, mine-jobs, and replicate,
// with /v1/query estimates matching X's offline counter to 1e-9 and the
// mined model matching Apriori over the same offline counter.
func TestSchemeEndToEnd(t *testing.T) {
	for _, tc := range schemeCases() {
		t.Run(tc.name, func(t *testing.T) {
			const (
				seed    = 7331
				records = 1200
			)
			srv, ts := startServer(t, WithScheme(tc.name), WithShards(3))
			if srv.Scheme() != tc.name {
				t.Fatalf("server scheme %q, want %q", srv.Scheme(), tc.name)
			}

			// The client validates the advertised contract at NewClient
			// time and negotiates the scheme.
			client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()))
			if err != nil {
				t.Fatal(err)
			}
			if client.Scheme() != tc.name {
				t.Fatalf("client negotiated %q, want %q", client.Scheme(), tc.name)
			}

			// Submit through the library: one single submit, the rest
			// batched, all driven by one seeded stream.
			schema := srv.schema
			db := randomDB(t, schema, records, 42)
			rng := rand.New(rand.NewSource(seed))
			if err := client.Submit(db.Records[0], rng); err != nil {
				t.Fatal(err)
			}
			if err := client.SubmitBatch(db.Records[1:], rng); err != nil {
				t.Fatal(err)
			}
			if srv.N() != records {
				t.Fatalf("server holds %d records, want %d", srv.N(), records)
			}

			// The offline counter over the IDENTICAL perturbed stream.
			offline := tc.offline(t, schema, client.Gamma(), db, seed)

			// Stats advertise the scheme.
			stats, err := client.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Scheme != tc.name {
				t.Fatalf("stats scheme %q, want %q", stats.Scheme, tc.name)
			}
			if stats.ConditionNumber <= 0 {
				t.Fatalf("stats condition number %v", stats.ConditionNumber)
			}

			// /v1/query estimates must match the offline counter to 1e-9.
			filters := []QueryFilter{
				{},
				{"a": "a1"},
				{"b": "b0"},
				{"a": "a2", "c": "c3"},
				{"a": "a0", "b": "b1", "c": "c0"},
			}
			sets := make([]mining.Itemset, len(filters))
			for i, f := range filters {
				items := make([]mining.Item, 0, len(f))
				for name, cat := range f {
					j := srv.attrIndex(name)
					items = append(items, mining.Item{Attr: j, Value: schema.Attrs[j].CategoryIndex(cat)})
				}
				set, err := mining.NewItemset(items...)
				if err != nil {
					t.Fatal(err)
				}
				sets[i] = set
			}
			want, err := offline.Supports(sets)
			if err != nil {
				t.Fatal(err)
			}
			qr, err := client.QueryAll(filters)
			if err != nil {
				t.Fatal(err)
			}
			if qr.Records != records {
				t.Fatalf("query records %d, want %d", qr.Records, records)
			}
			for i := range filters {
				if math.Abs(qr.Estimates[i].Count-want[i]) > 1e-9 {
					t.Errorf("filter %d: live estimate %v, offline %v", i, qr.Estimates[i].Count, want[i])
				}
				if len(sets[i]) > 0 && qr.Estimates[i].StdErr <= 0 {
					t.Errorf("filter %d: stderr %v, want > 0", i, qr.Estimates[i].StdErr)
				}
				if qr.Estimates[i].Lo > qr.Estimates[i].Count || qr.Estimates[i].Hi < qr.Estimates[i].Count {
					t.Errorf("filter %d: interval [%v,%v] excludes %v", i, qr.Estimates[i].Lo, qr.Estimates[i].Hi, qr.Estimates[i].Count)
				}
			}

			// Synchronous mining serves the scheme's reconstruction; the
			// model must match Apriori over the offline counter exactly
			// (identical estimator arithmetic over identical counts).
			const minsup = 0.05
			mined, err := client.Mine(minsup, 0, 10000)
			if err != nil {
				t.Fatal(err)
			}
			wantModel, err := mining.Apriori(offline, minsup)
			if err != nil {
				t.Fatal(err)
			}
			wantAll := wantModel.All()
			got := 0
			for _, is := range mined.Itemsets {
				got++
				items := make([]mining.Item, 0, len(is.Items))
				for name, cat := range is.Items {
					j := srv.attrIndex(name)
					items = append(items, mining.Item{Attr: j, Value: schema.Attrs[j].CategoryIndex(cat)})
				}
				set, err := mining.NewItemset(items...)
				if err != nil {
					t.Fatal(err)
				}
				fi, ok := wantAll[set.Key()]
				if !ok {
					t.Errorf("mined itemset %s not frequent offline", set.Key())
					continue
				}
				if math.Abs(fi.Support-is.Support) > 1e-9 {
					t.Errorf("%s: mined support %v, offline %v", set.Key(), is.Support, fi.Support)
				}
			}
			if got != len(wantAll) {
				t.Errorf("mined %d itemsets, offline model has %d", got, len(wantAll))
			}

			// Async jobs run through the same pool and cache.
			job, err := client.MineAsync(context.Background(), MineParams{MinSupport: minsup, Limit: 10000})
			if err != nil {
				t.Fatal(err)
			}
			if job.Records != records {
				t.Fatalf("job mined %d records, want %d", job.Records, records)
			}
			if !job.Cached {
				t.Error("async job after identical sync mine was not served from cache")
			}

			// Replication: a full delta pulled over HTTP rebuilds the
			// counter state on a fresh same-scheme core.
			d, err := client.Replicate(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Full() || d.Records != records {
				t.Fatalf("full delta carries %d records (full=%v), want %d", d.Records, d.Full(), records)
			}
			replica := srv.CounterScheme().NewCore()
			if err := replica.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			repSup, err := replica.Supports(sets)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sets {
				if math.Abs(repSup[i]-want[i]) > 1e-9 {
					t.Errorf("replica filter %d: %v, offline %v", i, repSup[i], want[i])
				}
			}

			// The library query engine over the live counter agrees with
			// the HTTP path.
			eng, err := query.NewLiveCounterEngine(srv.ctr())
			if err != nil {
				t.Fatal(err)
			}
			ests, err := eng.CountAll(sets)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sets {
				if math.Abs(ests[i].Count-qr.Estimates[i].Count) > 1e-9 {
					t.Errorf("engine filter %d: %v, HTTP %v", i, ests[i].Count, qr.Estimates[i].Count)
				}
			}
		})
	}
}

// TestSchemaAdvertisesScheme pins the wire form of scheme negotiation.
func TestSchemaAdvertisesScheme(t *testing.T) {
	for _, tc := range schemeCases() {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := startServer(t, WithScheme(tc.name))
			resp, err := ts.Client().Get(ts.URL + "/v1/schema")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var sr SchemaResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				t.Fatal(err)
			}
			if sr.Scheme.Name != tc.name {
				t.Fatalf("advertised scheme %q, want %q", sr.Scheme.Name, tc.name)
			}
			switch tc.name {
			case mining.SchemeMask:
				if !(sr.Scheme.MaskP > 0.5 && sr.Scheme.MaskP < 1) {
					t.Fatalf("advertised mask_p %v outside (0.5,1)", sr.Scheme.MaskP)
				}
			case mining.SchemeCutPaste:
				if sr.Scheme.CutK <= 0 || !(sr.Scheme.CutRho > 0 && sr.Scheme.CutRho < 1) {
					t.Fatalf("advertised C&P params K=%d rho=%v invalid", sr.Scheme.CutK, sr.Scheme.CutRho)
				}
			}
		})
	}
}

// TestClientRejectsContractViolations: the client must refuse to perturb
// under advertised parameters that violate the published gamma bound,
// and must refuse schemes it does not know.
func TestClientRejectsContractViolations(t *testing.T) {
	base := SchemaResponse{
		Name: "svc",
		Attributes: []AttributeJSON{
			{Name: "a", Categories: []string{"a0", "a1", "a2"}},
			{Name: "b", Categories: []string{"b0", "b1"}},
			{Name: "c", Categories: []string{"c0", "c1", "c2", "c3"}},
		},
		Privacy: PrivacyJSON{Rho1: 0.05, Rho2: 0.50},
	}
	serve := func(sr SchemaResponse) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/schema", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, sr)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}

	// A MASK p far above the privacy-derived value amplifies past gamma.
	weak := base
	weak.Scheme = SchemeJSON{Name: mining.SchemeMask, MaskP: 0.95}
	ts := serve(weak)
	if _, err := NewClient(ts.URL, WithHTTPClient(ts.Client())); !errors.Is(err, ErrService) {
		t.Fatal("client accepted MASK parameters violating the gamma bound")
	}

	// Same for a C&P rho far outside the feasible region.
	weakCP := base
	weakCP.Scheme = SchemeJSON{Name: mining.SchemeCutPaste, CutK: 3, CutRho: 0.02}
	ts = serve(weakCP)
	if _, err := NewClient(ts.URL, WithHTTPClient(ts.Client())); !errors.Is(err, ErrService) {
		t.Fatal("client accepted C&P parameters violating the gamma bound")
	}

	// Unknown schemes are refused outright.
	unknown := base
	unknown.Scheme = SchemeJSON{Name: "rot13"}
	ts = serve(unknown)
	if _, err := NewClient(ts.URL, WithHTTPClient(ts.Client())); !errors.Is(err, ErrService) {
		t.Fatal("client accepted an unknown scheme")
	}

	// Client-side randomization is a gamma extension.
	maskOK := base
	maskOK.Scheme = SchemeJSON{Name: mining.SchemeMask, MaskP: 0.56}
	ts = serve(maskOK)
	if _, err := NewClient(ts.URL, WithHTTPClient(ts.Client()), WithClientRandomization(0.5)); !errors.Is(err, ErrService) {
		t.Fatal("client accepted randomization under a boolean scheme")
	}
}

// TestSchemeStatePersistence: -state round-trips under every scheme,
// and a state directory written under one scheme can never be recovered
// into a server running another.
func TestSchemeStatePersistence(t *testing.T) {
	for _, tc := range schemeCases() {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "state")
			srv, ts := startStoreServer(t, dir, WithScheme(tc.name))
			client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()))
			if err != nil {
				t.Fatal(err)
			}
			db := randomDB(t, srv.schema, 300, 99)
			if err := client.SubmitBatch(db.Records, rand.New(rand.NewSource(17))); err != nil {
				t.Fatal(err)
			}
			srv.Close()
			ts.Close()

			// Every OTHER scheme must refuse this state directory.
			for _, other := range schemeCases() {
				if other.name == tc.name {
					continue
				}
				st, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := NewServer(srv.schema, core.PrivacySpec{Rho1: 0.05, Rho2: 0.50}, WithScheme(other.name), WithStore(st)); !errors.Is(err, mining.ErrMining) {
					t.Errorf("state written under %s recovered into %s server: %v", tc.name, other.name, err)
				}
				st.Close()
			}

			// Recover into a same-scheme server with a different shard
			// count.
			srv2, _ := startStoreServer(t, dir, WithScheme(tc.name), WithShards(5))
			if srv2.N() != 300 {
				t.Fatalf("restored %d records, want 300", srv2.N())
			}
		})
	}
}

// TestFederationSchemeContract is the federation acceptance: a
// coordinator syncing two same-scheme sites answers exactly like a
// single site that collected everything, while a mixed-scheme peer is
// rejected — surfaced in /v1/stats — and never merged.
func TestFederationSchemeContract(t *testing.T) {
	for _, tc := range schemeCases() {
		t.Run(tc.name, func(t *testing.T) {
			schema := serviceSchema(t)
			spec := core.PrivacySpec{Rho1: 0.05, Rho2: 0.50}

			newSite := func(scheme string) (*Server, *httptest.Server) {
				srv, err := NewServer(schema, spec, WithScheme(scheme), WithShards(2))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(srv.Close)
				ts := httptest.NewServer(srv.Handler())
				t.Cleanup(ts.Close)
				return srv, ts
			}

			siteA, tsA := newSite(tc.name)
			siteB, tsB := newSite(tc.name)
			// The union site collects EVERY record — the coordinator's
			// answers must match it exactly.
			union, tsU := newSite(tc.name)

			db := randomDB(t, schema, 600, 5)
			submit := func(ts *httptest.Server, recs []dataset.Record, seed int64) {
				client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()))
				if err != nil {
					t.Fatal(err)
				}
				if err := client.SubmitBatch(recs, rand.New(rand.NewSource(seed))); err != nil {
					t.Fatal(err)
				}
			}
			// Identical perturbed records reach site A/B and the union
			// site: per-half seeded streams.
			submit(tsA, db.Records[:300], 1001)
			submit(tsB, db.Records[300:], 1002)
			submit(tsU, db.Records[:300], 1001)
			submit(tsU, db.Records[300:], 1002)

			// A third peer runs a DIFFERENT scheme over the same schema.
			mixedScheme := mining.SchemeMask
			if tc.name == mining.SchemeMask {
				mixedScheme = mining.SchemeGamma
			}
			_, tsMixed := newSite(mixedScheme)
			submit(tsMixed, db.Records[:50], 1003)

			coordSrv, err := NewServer(schema, spec, WithScheme(tc.name))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(coordSrv.Close)
			coord, err := federation.NewCoordinator(coordSrv.CounterScheme(),
				[]string{tsA.URL, tsB.URL, tsMixed.URL}, coordSrv.ReplaceCounter,
				federation.WithHTTPClient(tsA.Client()))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(coord.Close)
			if err := coordSrv.EnableFederation(coord); err != nil {
				t.Fatal(err)
			}
			// The mixed-scheme peer fails the pass; the same-scheme sites
			// still merge.
			if err := coord.SyncAll(context.Background()); err == nil {
				t.Fatal("SyncAll reported success despite the mixed-scheme peer")
			}

			st := coord.Stats()
			if st.Scheme != tc.name {
				t.Fatalf("federation stats scheme %q, want %q", st.Scheme, tc.name)
			}
			if st.Records != siteA.N()+siteB.N() {
				t.Fatalf("global records %d, want %d (the mixed-scheme peer must never be merged)",
					st.Records, siteA.N()+siteB.N())
			}
			for _, p := range st.Peers {
				if p.URL == tsMixed.URL {
					if p.Healthy || p.Records != 0 || p.LastError == "" {
						t.Fatalf("mixed-scheme peer not rejected cleanly: %+v", p)
					}
				} else if !p.Healthy {
					t.Fatalf("same-scheme peer unhealthy: %+v", p)
				}
			}

			// Coordinator answers == single-node union, to 1e-9.
			tsCoord := httptest.NewServer(coordSrv.Handler())
			t.Cleanup(tsCoord.Close)
			filters := []QueryFilter{{}, {"a": "a1"}, {"b": "b0", "c": "c2"}, {"a": "a0", "b": "b1", "c": "c3"}}
			coordClient, err := NewClient(tsCoord.URL, WithHTTPClient(tsCoord.Client()))
			if err != nil {
				t.Fatal(err)
			}
			unionClient, err := NewClient(tsU.URL, WithHTTPClient(tsU.Client()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := coordClient.QueryAll(filters)
			if err != nil {
				t.Fatal(err)
			}
			want, err := unionClient.QueryAll(filters)
			if err != nil {
				t.Fatal(err)
			}
			if got.Records != union.N() {
				t.Fatalf("coordinator answers from %d records, union holds %d", got.Records, union.N())
			}
			for i := range filters {
				if math.Abs(got.Estimates[i].Count-want.Estimates[i].Count) > 1e-9 {
					t.Errorf("filter %d: coordinator %v, union %v", i, got.Estimates[i].Count, want.Estimates[i].Count)
				}
			}
		})
	}
}

// TestReplicateRejectsCrossScheme is the satellite regression for the
// scheme-safety gap: a replication payload pulled from a server running
// one scheme must be rejected by every other scheme's counter with a
// clear fingerprint error — even though both run the SAME schema.
func TestReplicateRejectsCrossScheme(t *testing.T) {
	srvMask, tsMask := startServer(t, WithScheme(mining.SchemeMask))
	client, err := NewClient(tsMask.URL, WithHTTPClient(tsMask.Client()))
	if err != nil {
		t.Fatal(err)
	}
	db := randomDB(t, srvMask.schema, 50, 3)
	if err := client.SubmitBatch(db.Records, rand.New(rand.NewSource(4))); err != nil {
		t.Fatal(err)
	}
	d, err := client.Replicate(0, 0)
	if err != nil {
		t.Fatal(err)
	}

	srvGamma, _ := startServer(t, WithScheme(mining.SchemeGamma))
	replica := srvGamma.CounterScheme().NewCore()
	if err := replica.ApplyDelta(d); !errors.Is(err, mining.ErrMining) {
		t.Fatalf("gamma replica accepted a MASK delta: %v", err)
	}
	if replica.N() != 0 {
		t.Fatal("rejected delta mutated the replica")
	}
}

// TestBoolSubmissionRejectsDuplicateAttribute: encoding/json keeps only
// the last of two duplicate object keys, which on the WRITE path would
// silently drop asserted categories — the submission decoder must parse
// token-wise and 400 instead, mirroring the query-filter convention.
func TestBoolSubmissionRejectsDuplicateAttribute(t *testing.T) {
	srv, ts := startServer(t, WithScheme(mining.SchemeMask))
	body := []byte(`{"a":["a0"],"a":["a2"]}`)
	resp, err := ts.Client().Post(ts.URL+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate-attribute submission returned %s, want 400", resp.Status)
	}
	if srv.N() != 0 {
		t.Fatalf("rejected submission was ingested: records=%d", srv.N())
	}
	// Batch path goes through the same decoder.
	resp, err = ts.Client().Post(ts.URL+"/v1/submit-batch", "application/json",
		bytes.NewReader([]byte(`[{"b":["b0"]},{"a":["a0"],"a":["a2"]}]`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || srv.N() != 0 {
		t.Fatalf("duplicate-attribute batch returned %s with %d records, want 400 and 0", resp.Status, srv.N())
	}
}
