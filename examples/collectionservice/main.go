// Collection service: the full FRAPP deployment in one process — a
// miner-side HTTP server that publishes the schema and privacy contract,
// a population of clients that perturb locally and submit over HTTP, a
// mining query against the reconstructed model, and a restart over the
// server's durable state directory without losing a submission.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	frapp "repro"
)

var nClients = exampleN(15000)

func main() {
	schema := frapp.CensusSchema()
	priv := frapp.PrivacySpec{Rho1: 0.05, Rho2: 0.50}

	// The server logs every accepted submission to a state directory
	// (checkpoints plus a delta write-ahead log) as it arrives.
	stateDir, err := os.MkdirTemp("", "frapp-example-state")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	st, err := frapp.OpenStateStore(stateDir)
	if err != nil {
		log.Fatal(err)
	}
	server, err := frapp.NewCollectionServer(schema, priv, frapp.WithMineWorkers(2), frapp.WithCollectionStore(st))
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	fmt.Printf("server up at %s (schema %s)\n", ts.URL, schema.Name)

	// The client library fetches the contract and perturbs locally; the
	// server never sees a raw record.
	client, err := frapp.NewCollectionClient(ts.URL,
		frapp.WithHTTPClient(ts.Client()),
		frapp.WithClientRandomization(0.5)) // extra client-side privacy
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client contract: gamma = %.4g\n", client.Gamma())

	population, err := frapp.GenerateCensus(nClients, 77)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if err := client.SubmitBatch(population.Records, rng); err != nil {
		log.Fatal(err)
	}
	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d perturbed submissions (cond=%.4g)\n", stats.Records, stats.ConditionNumber)

	// Mining runs as an asynchronous job: submit, poll to completion,
	// read the result. (client.Mine is the synchronous wrapper over the
	// same job pool.)
	job, err := client.SubmitMineJob(frapp.MineParams{MinSupport: 0.05, MinConf: 0.8, Limit: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted mining job %s (state %s)\n", job.ID, job.State)
	done, err := client.AwaitMineJob(context.Background(), job.ID, 10*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	mr := done.Result
	fmt.Printf("job %s done at snapshot version %d\n", done.ID, done.SnapshotVersion)
	fmt.Printf("reconstructed itemset counts by length: %v\n", mr.Counts)
	for _, is := range mr.Itemsets[:min(3, len(mr.Itemsets))] {
		fmt.Printf("  %v (sup=%.3f)\n", is.Items, is.Support)
	}

	// The collection hasn't changed, so an identical re-mine is a cache
	// hit: same snapshot version, no second Apriori run.
	again, err := client.MineAsync(context.Background(), frapp.MineParams{MinSupport: 0.05, MinConf: 0.8, Limit: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-mine served from cache: %v (version %d)\n", again.Cached, again.SnapshotVersion)

	// Durability: shut down (flushing the log), restart over the same
	// directory, and verify nothing was lost.
	server.Close()
	st, err = frapp.OpenStateStore(stateDir)
	if err != nil {
		log.Fatal(err)
	}
	restored, err := frapp.NewCollectionServer(schema, priv, frapp.WithCollectionStore(st))
	if err != nil {
		log.Fatal(err)
	}
	defer restored.Close()
	fmt.Printf("after restart: %d submissions restored from %s\n", restored.N(), stateDir)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// exampleN returns def, unless the FRAPP_EXAMPLE_N environment variable
// overrides it — the examples smoke test shrinks runs to seconds with it.
func exampleN(def int) int {
	if s := os.Getenv("FRAPP_EXAMPLE_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}
