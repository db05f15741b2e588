package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/mining"
)

// submitN pushes n random (nominally already-perturbed) records through
// the HTTP submit path.
func submitN(t *testing.T, srv *Server, url string, rng *rand.Rand, n int) {
	t.Helper()
	client := &http.Client{}
	for i := 0; i < n; i++ {
		rj := make(RecordJSON, srv.schema.M())
		for _, a := range srv.schema.Attrs {
			rj[a.Name] = a.Categories[rng.Intn(a.Cardinality())]
		}
		body, err := json.Marshal(rj)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(url+"/v1/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit returned %s", resp.Status)
		}
	}
}

func TestReplicateFullAndIncremental(t *testing.T) {
	srv, ts := startServer(t)
	client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	submitN(t, srv, ts.URL, rng, 15)

	d1, err := client.Replicate(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Full() || d1.Records != 15 {
		t.Fatalf("first pull: full=%v records=%d", d1.Full(), d1.Records)
	}
	if d1.Fingerprint != mining.CompatibilityFingerprint(srv.schema, srv.matrix) {
		t.Fatal("fingerprint does not match server contract")
	}

	submitN(t, srv, ts.URL, rng, 7)
	d2, err := client.Replicate(d1.ToVersion, d1.Generation)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Full() {
		t.Fatal("second pull fell back to full despite retained baseline")
	}
	if d2.FromVersion != d1.ToVersion || d2.Records != 7 {
		t.Fatalf("second pull: from=%d (want %d) records=%d (want 7)", d2.FromVersion, d1.ToVersion, d2.Records)
	}

	// Replaying both deltas rebuilds the server's counter exactly.
	replica, err := mining.NewMaterializedGammaCounter(srv.schema, srv.matrix)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyDelta(d1); err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyDelta(d2); err != nil {
		t.Fatal(err)
	}
	if replica.N() != srv.N() {
		t.Fatalf("replica has %d records, server %d", replica.N(), srv.N())
	}
}

// counterCopy rebuilds srv's current counter as a new counter object
// from its full delta — the same path a checkpoint restore takes.
func counterCopy(t *testing.T, srv *Server, shards int) *mining.ShardedCounter {
	t.Helper()
	d, err := srv.ctr().DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := mining.NewShardedCounter(srv.CounterScheme(), shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestReplicateGenerationMismatchForcesFull(t *testing.T) {
	srv, ts := startServer(t)
	client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	submitN(t, srv, ts.URL, rng, 10)

	d1, err := client.Replicate(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Copy, add more, swap the copy in: the counter object is replaced,
	// its version line restarts, and its generation bumps.
	older := counterCopy(t, srv, srv.Shards())
	submitN(t, srv, ts.URL, rng, 5)
	if err := srv.ReplaceCounter(older, nil); err != nil {
		t.Fatal(err)
	}

	d2, err := client.Replicate(d1.ToVersion, d1.Generation)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Full() {
		t.Fatal("post-restore pull chained incrementally across generations")
	}
	if d2.Generation == d1.Generation {
		t.Fatalf("generation did not change across restore: %d", d2.Generation)
	}
	if d2.Records != 10 {
		t.Fatalf("post-restore full delta has %d records, want restored 10", d2.Records)
	}
}

func TestReplicateRejectsBadParams(t *testing.T) {
	_, ts := startServer(t)
	for _, q := range []string{"since=-1", "since=abc", "gen=zz"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/replicate?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", q, resp.Status)
		}
	}
}

func TestFederatedServerRefusesSubmissions(t *testing.T) {
	srv, ts := startServer(t)
	coord, err := federation.NewCoordinator(srv.CounterScheme(), []string{"http://127.0.0.1:1"}, srv.ReplaceCounter)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := srv.EnableFederation(coord); err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableFederation(coord); err == nil {
		t.Fatal("double EnableFederation accepted")
	}
	if !srv.Federated() {
		t.Fatal("Federated() false after enable")
	}
	for _, path := range []string{"/v1/submit", "/v1/submit-batch"} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s: status %s, want 403", path, resp.Status)
		}
	}
}

func TestReplaceCounterValidatesContract(t *testing.T) {
	srv, _ := startServer(t)
	if err := srv.ReplaceCounter(nil, nil); err == nil {
		t.Fatal("nil counter accepted")
	}
	other, err := dataset.NewSchema("other", []dataset.Attribute{
		{Name: "x", Categories: []string{"x0", "x1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	om, err := core.NewGammaDiagonal(other.DomainSize(), 19)
	if err != nil {
		t.Fatal(err)
	}
	oc, err := mining.NewShardedGammaCounter(other, om, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ReplaceCounter(oc, nil); err == nil {
		t.Fatal("mismatched counter accepted")
	}

	// A matching counter swaps in atomically with its version vector.
	merged, err := mining.NewMaterializedGammaCounter(srv.schema, srv.matrix)
	if err != nil {
		t.Fatal(err)
	}
	rec := make(dataset.Record, srv.schema.M())
	if err := merged.Add(rec); err != nil {
		t.Fatal(err)
	}
	genBefore := srv.CounterGeneration()
	vector := map[string]uint64{"http://site-a": 42}
	if err := srv.ReplaceCounter(mining.NewShardedFromSnapshot(merged), vector); err != nil {
		t.Fatal(err)
	}
	if srv.N() != 1 {
		t.Fatalf("server records %d after replace, want 1", srv.N())
	}
	if srv.CounterGeneration() <= genBefore {
		t.Fatal("generation did not advance on replace")
	}
}
