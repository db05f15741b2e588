package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
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

// TestRunRefusesSingleFileState: a -state path that is a regular file
// (the removed single-file format) fails startup with an error naming
// the path and the reason, and the file is left as it was.
func TestRunRefusesSingleFileState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.gob")
	content := []byte("single-file state")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig{
		addr: "127.0.0.1:0", schema: "census", rho1: 0.05, rho2: 0.5,
		state: path, mineWorkers: 1, jobTTL: time.Minute,
	}
	err := run(context.Background(), cfg)
	if err == nil {
		t.Fatal("single-file -state accepted")
	}
	for _, want := range []string{path, "single-file", "removed"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(content) {
		t.Fatalf("refused state file was modified: %q (err %v)", got, err)
	}
}
