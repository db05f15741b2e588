package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func testSchemaSpec() *SchemaSpec {
	return &SchemaSpec{
		Name: "tenants",
		Attrs: []dataset.Attribute{
			{Name: "a", Categories: []string{"a0", "a1", "a2"}},
			{Name: "b", Categories: []string{"b0", "b1"}},
			{Name: "c", Categories: []string{"c0", "c1", "c2", "c3"}},
		},
	}
}

func testSpec() CollectionSpec {
	return CollectionSpec{Schema: testSchemaSpec(), Rho1: 0.05, Rho2: 0.50, Shards: 2}
}

// startRegistry builds a registry (memory-only unless opts.BaseDir is
// set) and an HTTP front over its handler.
func startRegistry(t *testing.T, o Options) (*Registry, *httptest.Server) {
	t.Helper()
	reg, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := reg.Close(); err != nil {
			t.Error(err)
		}
	})
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(ts.Close)
	return reg, ts
}

// doJSON runs one request and returns status + body.
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// putCollection PUTs a spec and fails the test on an unexpected status.
func putCollection(t *testing.T, ts *httptest.Server, name string, spec CollectionSpec, wantStatus int) []byte {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	status, resp := doJSON(t, ts, "PUT", "/v1/collections/"+name, body)
	if status != wantStatus {
		t.Fatalf("PUT %s: status %d, want %d (%s)", name, status, wantStatus, resp)
	}
	return resp
}

// collectionClient builds a service.Client against the collection-
// scoped base URL — the unmodified client working through the
// path-alias is itself part of what these tests pin down.
func collectionClient(t *testing.T, ts *httptest.Server, name string) *service.Client {
	t.Helper()
	c, err := service.NewClient(ts.URL+"/v1/collections/"+name, service.WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatalf("client for %s: %v", name, err)
	}
	return c
}

// seedRecords synthesizes deterministic records for the test schema.
func seedRecords(schema *dataset.Schema, n int, seed int64) []dataset.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]dataset.Record, n)
	for i := range recs {
		rec := make(dataset.Record, schema.M())
		for j, a := range schema.Attrs {
			rec[j] = rng.Intn(a.Cardinality())
		}
		recs[i] = rec
	}
	return recs
}

func ingestSeeded(t *testing.T, c *service.Client, n int, seed int64) {
	t.Helper()
	if err := c.SubmitBatch(seedRecords(c.Schema(), n, seed), rand.New(rand.NewSource(seed+1))); err != nil {
		t.Fatal(err)
	}
}

// rawQuery POSTs a fixed query body and returns the response bytes —
// raw, so isolation tests can demand BYTE identity, not just value
// identity.
func rawQuery(t *testing.T, ts *httptest.Server, prefix string) []byte {
	t.Helper()
	body := []byte(`{"filters":[{},{"a":"a1"},{"b":"b0","c":"c3"}]}`)
	status, resp := doJSON(t, ts, "POST", prefix+"/v1/query", body)
	if status != http.StatusOK {
		t.Fatalf("query %s: status %d (%s)", prefix, status, resp)
	}
	return resp
}

func TestCollectionLifecycleHTTP(t *testing.T) {
	_, ts := startRegistry(t, Options{MaxCollections: 3})

	// Create, then re-PUT the identical spec: idempotent.
	resp := putCollection(t, ts, "alpha", testSpec(), http.StatusCreated)
	var info CollectionInfo
	if err := json.Unmarshal(resp, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "alpha" || info.Spec.Scheme != "gamma" {
		t.Fatalf("created info = %+v, want name alpha, normalized scheme gamma", info)
	}
	putCollection(t, ts, "alpha", testSpec(), http.StatusOK)

	// A different spec under a live name: conflict, never an overwrite.
	changed := testSpec()
	changed.Rho2 = 0.4
	putCollection(t, ts, "alpha", changed, http.StatusConflict)

	// Bad names and bad specs are 400s — including specs whose error
	// text echoes words of the conflict and cap errors.
	noSchema := testSpec()
	noSchema.Schema = nil
	dupAttr := func(attr string) CollectionSpec {
		spec := testSpec()
		a := dataset.Attribute{Name: attr, Categories: []string{"x", "y"}}
		spec.Schema = &SchemaSpec{Name: "dup", Attrs: []dataset.Attribute{a, a}}
		return spec
	}
	for _, tc := range []struct {
		name string
		spec CollectionSpec
	}{
		{"UPPER", testSpec()},
		{"noschema", noSchema},
		{"dup-limit", dupAttr("limit")},
		{"dup-exists", dupAttr("already exists")},
	} {
		putCollection(t, ts, tc.name, tc.spec, http.StatusBadRequest)
	}
	if status, _ := doJSON(t, ts, "PUT", "/v1/collections/raw", []byte("{nope")); status != http.StatusBadRequest {
		t.Fatalf("bad JSON spec: %d, want 400", status)
	}

	// Normalization makes differently spelled durations the same spec.
	win := testSpec()
	win.WindowBuckets = 3
	win.WindowBucket = "60s"
	putCollection(t, ts, "win", win, http.StatusCreated)
	win.WindowBucket = "1m"
	putCollection(t, ts, "win", win, http.StatusOK)

	// The cap refuses the collection over the limit.
	putCollection(t, ts, "third", testSpec(), http.StatusCreated)
	putCollection(t, ts, "fourth", testSpec(), http.StatusForbidden)

	// List and get.
	status, resp := doJSON(t, ts, "GET", "/v1/collections", nil)
	if status != http.StatusOK {
		t.Fatalf("list: %d", status)
	}
	var infos []CollectionInfo
	if err := json.Unmarshal(resp, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("list holds %d collections, want 3", len(infos))
	}
	if status, _ := doJSON(t, ts, "GET", "/v1/collections/ghost", nil); status != http.StatusNotFound {
		t.Fatalf("get unknown: %d, want 404", status)
	}

	// Delete frees the slot; deleting again is 404.
	if status, _ := doJSON(t, ts, "DELETE", "/v1/collections/third", nil); status != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", status)
	}
	if status, _ := doJSON(t, ts, "DELETE", "/v1/collections/third", nil); status != http.StatusNotFound {
		t.Fatalf("re-delete: %d, want 404", status)
	}
	putCollection(t, ts, "fourth", testSpec(), http.StatusCreated)

	// Data plane of an unknown collection is 404.
	if status, _ := doJSON(t, ts, "GET", "/v1/collections/ghost/v1/schema", nil); status != http.StatusNotFound {
		t.Fatalf("data plane of unknown collection: %d, want 404", status)
	}
	// No default spec was given: legacy routes say so, and the name
	// stays reserved for one.
	if status, _ := doJSON(t, ts, "GET", "/v1/schema", nil); status != http.StatusNotFound {
		t.Fatalf("legacy route without default: %d, want 404", status)
	}
	putCollection(t, ts, DefaultCollection, testSpec(), http.StatusConflict)
}

// TestDefaultSpecServesLegacyRoutes: the default collection, built
// from Options.Default, answers both the un-prefixed legacy routes and
// the path-scoped form, identically; it reports its spec, stays under
// its flags' control, keeps its store at the BaseDir root out of the
// manifest, and emits unlabeled metric series.
func TestDefaultSpecServesLegacyRoutes(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	spec.MineWorkers = 3
	met := telemetry.NewRegistry()
	_, ts := startRegistry(t, Options{BaseDir: dir, Metrics: met, Default: &spec})

	legacy, err := service.NewClient(ts.URL, service.WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ingestSeeded(t, legacy, 120, 7)

	direct := rawQuery(t, ts, "")
	scoped := rawQuery(t, ts, "/v1/collections/"+DefaultCollection)
	if !bytes.Equal(direct, scoped) {
		t.Fatalf("legacy and scoped answers differ:\n%s\n%s", direct, scoped)
	}
	status, b := doJSON(t, ts, "GET", "/v1/collections/"+DefaultCollection, nil)
	var info CollectionInfo
	if err := json.Unmarshal(b, &info); status != http.StatusOK || err != nil {
		t.Fatalf("get default: %d %v (%s)", status, err, b)
	}
	if !info.Default || info.Records != 120 || info.Spec.Rho1 != 0.05 || info.Spec.Rho2 != 0.5 || info.Spec.MineWorkers != 3 {
		t.Fatalf("default info %+v, want the spec it was built from and 120 records", info)
	}
	// The default collection is flag-configured: delete refuses, and so
	// does re-creating it, even with the identical spec.
	if status, _ := doJSON(t, ts, "DELETE", "/v1/collections/"+DefaultCollection, nil); status != http.StatusForbidden {
		t.Fatalf("delete default: %d, want 403", status)
	}
	putCollection(t, ts, DefaultCollection, testSpec(), http.StatusConflict)
	putCollection(t, ts, DefaultCollection, spec, http.StatusConflict)

	putCollection(t, ts, "named", testSpec(), http.StatusCreated)
	ingestSeeded(t, collectionClient(t, ts, "named"), 10, 8)
	manifest, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(manifest), `"named"`) || strings.Contains(string(manifest), `"default"`) {
		t.Fatalf("manifest should list only the named collection:\n%s", manifest)
	}
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*")); len(ckpts) == 0 {
		t.Fatalf("no default store at the base directory root %s", dir)
	}

	var text bytes.Buffer
	if err := met.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	expo, err := telemetry.ParseExposition(text.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, smp := range expo.Samples {
		if smp.Name == "frapp_ingest_records_total" {
			labels[smp.Labels["collection"]] = true
		}
	}
	if !labels[""] || !labels["named"] || len(labels) != 2 {
		t.Fatalf("frapp_ingest_records_total collection labels %v, want the unlabeled default and \"named\"", labels)
	}
}

// TestCollectionIsolation is the tenant-isolation equivalence proof:
// a query against collection A must return BYTE-identical responses
// before creating B, after ingesting into B, and after deleting B.
func TestCollectionIsolation(t *testing.T) {
	_, ts := startRegistry(t, Options{})

	putCollection(t, ts, "a", testSpec(), http.StatusCreated)
	clientA := collectionClient(t, ts, "a")
	ingestSeeded(t, clientA, 200, 42)
	baseline := rawQuery(t, ts, "/v1/collections/a")

	putCollection(t, ts, "b", testSpec(), http.StatusCreated)
	afterCreate := rawQuery(t, ts, "/v1/collections/a")
	if !bytes.Equal(baseline, afterCreate) {
		t.Fatalf("creating B changed A's answer:\n%s\n%s", baseline, afterCreate)
	}

	clientB := collectionClient(t, ts, "b")
	ingestSeeded(t, clientB, 333, 99)
	afterIngest := rawQuery(t, ts, "/v1/collections/a")
	if !bytes.Equal(baseline, afterIngest) {
		t.Fatalf("ingesting into B changed A's answer:\n%s\n%s", baseline, afterIngest)
	}
	// And B actually received its records — isolation, not inertness.
	if est, err := clientB.Query(service.QueryFilter{}); err != nil || est.N != 333 {
		t.Fatalf("B query: est.N=%d err=%v, want 333", est.N, err)
	}

	if status, _ := doJSON(t, ts, "DELETE", "/v1/collections/b", nil); status != http.StatusNoContent {
		t.Fatal("delete b failed")
	}
	afterDelete := rawQuery(t, ts, "/v1/collections/a")
	if !bytes.Equal(baseline, afterDelete) {
		t.Fatalf("deleting B changed A's answer:\n%s\n%s", baseline, afterDelete)
	}
}

// TestWindowedCollectionViaRegistry: a windowed spec builds a windowed
// server whose window parameter works through the path-scoped routes,
// and whose full-ring windowed answer equals the unwindowed one.
func TestWindowedCollectionViaRegistry(t *testing.T) {
	reg, ts := startRegistry(t, Options{})
	spec := testSpec()
	spec.WindowBuckets = 4
	spec.WindowBucket = "1m"
	putCollection(t, ts, "sliding", spec, http.StatusCreated)

	col, err := reg.Get("sliding")
	if err != nil {
		t.Fatal(err)
	}
	if err := col.AwaitReady(); err != nil {
		t.Fatal(err)
	}
	srv, _ := col.Server()
	if !srv.Windowed() {
		t.Fatal("windowed spec built an unwindowed server")
	}
	if b, d := srv.WindowSpec(); b != 4 || d != time.Minute {
		t.Fatalf("WindowSpec = (%d, %v), want (4, 1m)", b, d)
	}

	client := collectionClient(t, ts, "sliding")
	ingestSeeded(t, client, 150, 5)
	filters := []service.QueryFilter{{}, {"a": "a2"}}
	plain, err := client.QueryAll(filters)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := client.QueryWindow(filters, "4m")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Records != windowed.Records || plain.Estimates[1].Count != windowed.Estimates[1].Count {
		t.Fatalf("full-ring window disagrees with unwindowed: %+v vs %+v", plain, windowed)
	}
	// A windowed collection cannot federate.
	fed := testSpec()
	fed.WindowBuckets = 2
	fed.WindowBucket = "1m"
	fed.Peers = []string{"http://127.0.0.1:1"}
	putCollection(t, ts, "fedwin", fed, http.StatusBadRequest)
}

// TestRegistryDurability: collections and their data survive a
// registry restart — the manifest rebuilds the fleet, each tenant
// store recovers its own WAL, and a deleted collection stays deleted.
func TestRegistryDurability(t *testing.T) {
	dir := t.TempDir()
	reg1, ts1 := startRegistry(t, Options{BaseDir: dir})

	putCollection(t, ts1, "keep", testSpec(), http.StatusCreated)
	putCollection(t, ts1, "drop", testSpec(), http.StatusCreated)
	keep := collectionClient(t, ts1, "keep")
	ingestSeeded(t, keep, 180, 21)
	drop := collectionClient(t, ts1, "drop")
	ingestSeeded(t, drop, 50, 22)

	// Force the WAL append so the restart has something to recover, and
	// capture the pre-restart answer.
	colKeep, err := reg1.Get("keep")
	if err != nil {
		t.Fatal(err)
	}
	srvKeep, err := colKeep.Server()
	if err != nil {
		t.Fatal(err)
	}
	if err := srvKeep.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	before := rawQuery(t, ts1, "/v1/collections/keep")
	if status, _ := doJSON(t, ts1, "DELETE", "/v1/collections/drop", nil); status != http.StatusNoContent {
		t.Fatal("delete drop failed")
	}
	ts1.Close()
	reg1.Close()

	reg2, ts2 := startRegistry(t, Options{BaseDir: dir})
	if err := reg2.AwaitReady(); err != nil {
		t.Fatal(err)
	}
	after := rawQuery(t, ts2, "/v1/collections/keep")
	if !bytes.Equal(before, after) {
		t.Fatalf("restart changed keep's answer:\n%s\n%s", before, after)
	}
	if _, err := reg2.Get("drop"); err == nil {
		t.Fatal("deleted collection resurrected by restart")
	}
}

// TestRegistryReadyzDuringRecovery pins the slow-recovery contract:
// while any collection is still recovering, /readyz answers 503 naming
// it, the collection's data plane answers 503, and its lifecycle GET
// reports "recovering" — then everything flips once the build lands.
func TestRegistryReadyzDuringRecovery(t *testing.T) {
	dir := t.TempDir()
	reg1, ts1 := startRegistry(t, Options{BaseDir: dir})
	putCollection(t, ts1, "slow", testSpec(), http.StatusCreated)
	ts1.Close()
	reg1.Close()

	gate := make(chan struct{})
	reg2, err := newBlocked(Options{BaseDir: dir}, func(name string) { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	ts2 := httptest.NewServer(reg2.Handler())
	defer ts2.Close()
	ops := httptest.NewServer(telemetry.OpsHandler(telemetry.NewRegistry(), reg2.Ready))
	defer ops.Close()

	resp, err := http.Get(ops.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during recovery: %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "slow: recovering") {
		t.Fatalf("readyz breakdown %q does not name the recovering collection", body)
	}
	if status, b := doJSON(t, ts2, "GET", "/v1/collections/slow/v1/schema", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("data plane during recovery: %d (%s), want 503", status, b)
	}
	status, b := doJSON(t, ts2, "GET", "/v1/collections/slow", nil)
	if status != http.StatusOK {
		t.Fatalf("lifecycle GET during recovery: %d", status)
	}
	var info CollectionInfo
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	if info.State != "recovering" {
		t.Fatalf("state = %q, want recovering", info.State)
	}

	close(gate)
	if err := reg2.AwaitReady(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ops.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery: %d, want 200", resp.StatusCode)
	}
	if status, _ := doJSON(t, ts2, "GET", "/v1/collections/slow/v1/schema", nil); status != http.StatusOK {
		t.Fatalf("data plane after recovery: %d, want 200", status)
	}
}

// newBlocked is the test hook: a registry whose background builds
// first run delay (used to hold recovery open deterministically).
func newBlocked(o Options, delay func(name string)) (*Registry, error) {
	// The delay must be installed before New spawns manifest rebuilds,
	// so this re-implements New's manifest pass with the seam set.
	r, err := New(Options{MaxCollections: o.MaxCollections, Metrics: o.Metrics, ServerOptions: o.ServerOptions, SyncMode: o.SyncMode})
	if err != nil {
		return nil, err
	}
	r.buildDelay = delay
	r.baseDir = o.BaseDir
	specs, err := r.loadManifest()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, spec := range specs {
		col := &Collection{name: name, spec: spec, ready: make(chan struct{})}
		r.collections[name] = col
		r.everNamed[name] = true
		go r.build(col)
	}
	return r, nil
}

// TestRegistryTenantChurn drives N collections through concurrent
// create/ingest/query/delete cycles — the race-detector stress target
// CI runs in its tenant-matrix step. Request-level failures against a
// collection mid-delete are expected; data races and panics are not.
func TestRegistryTenantChurn(t *testing.T) {
	_, ts := startRegistry(t, Options{MaxCollections: 16, Metrics: telemetry.NewRegistry()})
	const tenants = 6
	rounds := 4
	if testing.Short() {
		rounds = 2
	}

	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("tenant-%d", i)
			spec := testSpec()
			// CI's stress matrix pins the scheme; unset means gamma.
			if s := os.Getenv("FRAPP_STRESS_SCHEME"); s != "" {
				spec.Scheme = s
			}
			if i%2 == 0 { // alternate windowed and plain tenants
				spec.WindowBuckets = 3
				spec.WindowBucket = "1m"
			}
			for round := 0; round < rounds; round++ {
				body, _ := json.Marshal(spec)
				status, resp := doJSON(t, ts, "PUT", "/v1/collections/"+name, body)
				if status != http.StatusCreated && status != http.StatusOK {
					t.Errorf("%s round %d: PUT %d (%s)", name, round, status, resp)
					return
				}
				client, err := service.NewClient(ts.URL+"/v1/collections/"+name,
					service.WithHTTPClient(ts.Client()))
				if err != nil {
					t.Errorf("%s round %d: client: %v", name, round, err)
					return
				}
				recs := seedRecords(client.Schema(), 40, int64(i*100+round))
				if err := client.SubmitBatch(recs, rand.New(rand.NewSource(int64(round)))); err != nil {
					t.Errorf("%s round %d: submit: %v", name, round, err)
					return
				}
				est, err := client.Query(service.QueryFilter{})
				if err != nil {
					t.Errorf("%s round %d: query: %v", name, round, err)
					return
				}
				if est.N != 40 {
					t.Errorf("%s round %d: N=%d, want 40 (cross-tenant contamination?)", name, round, est.N)
					return
				}
				if status, _ := doJSON(t, ts, "DELETE", "/v1/collections/"+name, nil); status != http.StatusNoContent {
					t.Errorf("%s round %d: DELETE %d", name, round, status)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestCreateServesOnReturn pins that a PUT answers only once the
// collection is built: for every scheme, with a slow build, a client
// acting on the 201 at once gets a serving collection (not a 503), and
// an identical PUT racing the build answers 200 only once it is ready.
func TestCreateServesOnReturn(t *testing.T) {
	for _, scheme := range []string{"gamma", "mask", "cutpaste"} {
		t.Run(scheme, func(t *testing.T) {
			reg, ts := startRegistry(t, Options{BaseDir: t.TempDir()})
			entered, gate := make(chan struct{}), make(chan struct{})
			reg.buildDelay = func(string) {
				close(entered)
				<-gate
			}
			spec := testSpec()
			spec.Scheme = scheme
			name := "slow-" + scheme

			body, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			type answer struct {
				status int
				body   []byte
			}
			put := func(out chan<- answer) {
				req, _ := http.NewRequest("PUT", ts.URL+"/v1/collections/"+name, bytes.NewReader(body))
				resp, err := ts.Client().Do(req)
				if err != nil {
					out <- answer{}
					return
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				out <- answer{resp.StatusCode, b}
			}
			first, second := make(chan answer), make(chan answer)
			go put(first)
			<-entered
			// An identical PUT issued while the first build is held open
			// must wait for that build (or, arriving after it, find the
			// collection ready).
			go put(second)
			close(gate)

			for i, ch := range []chan answer{first, second} {
				want := []int{http.StatusCreated, http.StatusOK}[i]
				a := <-ch
				if a.status != want {
					t.Fatalf("PUT %d: status %d, want %d (%s)", i+1, a.status, want, a.body)
				}
				var info CollectionInfo
				if err := json.Unmarshal(a.body, &info); err != nil {
					t.Fatal(err)
				}
				if info.State != "ready" {
					t.Fatalf("PUT %d answered with state %q, want ready", i+1, info.State)
				}
			}
			client := collectionClient(t, ts, name)
			ingestSeeded(t, client, 30, 5)
			est, err := client.Query(service.QueryFilter{})
			if err != nil {
				t.Fatal(err)
			}
			if est.N != 30 {
				t.Fatalf("N=%d after ingesting 30", est.N)
			}
		})
	}
}
