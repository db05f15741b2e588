package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/service"
)

// startRun runs the server in the background and returns its base URL;
// the test's cleanup cancels it and requires a clean exit.
func startRun(t *testing.T, cfg serverConfig) string {
	t.Helper()
	cfg.addr = freePort(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(15 * time.Second):
			t.Error("run did not shut down")
		}
	})
	base := "http://" + cfg.addr
	waitUp(t, base)
	return base
}

// do sends one request and returns the status and body.
func do(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestRunDefaultSpecFromFlags: the collection flags compile into the
// default collection's spec, which GET /v1/collections/default
// reports, and the server-wide flags reach named collections too.
func TestRunDefaultSpecFromFlags(t *testing.T) {
	base := startRun(t, serverConfig{
		schema: "census", rho1: 0.05, rho2: 0.5, mineWorkers: 3,
		windowBuckets: 4, windowBucket: time.Minute, queryLimit: 2,
	})

	status, body := do(t, "GET", base+"/v1/collections/"+registry.DefaultCollection, nil)
	var info registry.CollectionInfo
	if err := json.Unmarshal(body, &info); status != http.StatusOK || err != nil {
		t.Fatalf("GET default: %d %v (%s)", status, err, body)
	}
	got := info.Spec
	if !info.Default || info.State != "ready" || got.Schema == nil || got.Schema.Name != dataset.CensusSchema().Name ||
		got.Scheme != "gamma" || got.Rho1 != 0.05 || got.Rho2 != 0.5 || got.MineWorkers != 3 ||
		got.WindowBuckets != 4 || got.WindowBucket != "1m0s" {
		t.Fatalf("default collection reports %s, want the spec the flags describe", body)
	}

	spec, err := json.Marshal(registry.CollectionSpec{
		Schema: &registry.SchemaSpec{Name: "s", Attrs: []dataset.Attribute{{Name: "k", Categories: []string{"a", "b"}}}},
		Rho1:   0.05, Rho2: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if status, body := do(t, "PUT", base+"/v1/collections/named", spec); status != http.StatusCreated {
		t.Fatalf("PUT named: %d (%s)", status, body)
	}
	query := []byte(`{"filters":[{},{"k":"a"},{"k":"b"}]}`)
	status, body = do(t, "POST", base+"/v1/collections/named/v1/query", query)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "exceeds limit 2") {
		t.Fatalf("3-filter query on a named collection with -query-limit 2: %d (%s), want 400 over the limit", status, body)
	}
}

// TestRunMigratesLegacyStateFile: a legacy single-file -state written
// by SaveState becomes a store directory at boot, and its records are
// served.
func TestRunMigratesLegacyStateFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.gob")
	srv, err := service.NewServer(dataset.CensusSchema(), core.PrivacySpec{Rho1: 0.05, Rho2: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	const n = 3
	for i := 0; i < n; i++ {
		submitOne(t, ts.URL)
	}
	ts.Close()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SaveState(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	base := startRun(t, serverConfig{schema: "census", rho1: 0.05, rho2: 0.5, state: path})
	if got := statsRecords(t, base); got != n {
		t.Fatalf("migrated server has %d records, want %d", got, n)
	}
	if info, err := os.Stat(path); err != nil || !info.IsDir() {
		t.Fatalf("legacy -state file was not migrated into a directory: %v", err)
	}
}
