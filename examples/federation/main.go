// Federated collection across three independent sites. FRAPP perturbs
// at the data provider, so each site's counter is already privacy-safe
// — which means site counters merge additively with no extra privacy
// cost. This demo runs 3 collector sites and 1 coordinator: clients
// submit locally perturbed records to their nearest site, the
// coordinator pulls versioned counter deltas from every site and
// answers queries over the merged GLOBAL counter. Because the example
// generates the population itself, it checks that the global estimate's
// 95% confidence interval brackets the ground truth of the full
// population — something no single site could even phrase.
//
// The last act is the operational hard case: one site restores an older
// snapshot of its counter mid-run. Its counter generation bumps, the
// coordinator full-resyncs that site, and the global view re-converges
// to the true union — never double-counting, never serving the stale
// contribution.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"os"
	"strconv"

	frapp "repro"
)

var clientsPerSite = exampleN(15000)

func main() {
	schema := frapp.CensusSchema()
	priv := frapp.PrivacySpec{Rho1: 0.05, Rho2: 0.50} // γ = 19

	// Three independent collector sites.
	var (
		sites   []*frapp.CollectionServer
		siteTS  []*httptest.Server
		peerURL []string
	)
	for i := 0; i < 3; i++ {
		srv, err := frapp.NewCollectionServer(schema, priv)
		check(err)
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		sites = append(sites, srv)
		siteTS = append(siteTS, ts)
		peerURL = append(peerURL, ts.URL)
	}

	// One coordinator serving the merged global view, built over the
	// coordinator server's own scheme contract so the contracts cannot
	// drift.
	coordSrv, err := frapp.NewCollectionServer(schema, priv)
	check(err)
	defer coordSrv.Close()
	coord, err := frapp.NewFederationCoordinator(coordSrv.CounterScheme(), peerURL, coordSrv.ReplaceCounter)
	check(err)
	defer coord.Close()
	check(coordSrv.EnableFederation(coord))
	coordTS := httptest.NewServer(coordSrv.Handler())
	defer coordTS.Close()

	// Each site's clients perturb locally and submit to their own site.
	population, err := frapp.GenerateCensus(3*clientsPerSite, 7)
	check(err)
	rng := rand.New(rand.NewSource(1))
	for i, ts := range siteTS {
		client, err := frapp.NewCollectionClient(ts.URL, frapp.WithHTTPClient(ts.Client()))
		check(err)
		part := population.Records[i*clientsPerSite : (i+1)*clientsPerSite]
		check(client.SubmitBatch(part, rng))
		fmt.Printf("site %d collected %d perturbed submissions\n", i, sites[i].N())
	}

	// One synchronous pull of every site (production uses the jittered
	// background loop via coord.Start()).
	check(coord.SyncAll(context.Background()))

	coordClient, err := frapp.NewCollectionClient(coordTS.URL, frapp.WithHTTPClient(coordTS.Client()))
	check(err)
	fs, err := coordClient.FederationStats()
	check(err)
	fmt.Printf("\ncoordinator merged %d records from %d sites (version vector %v)\n\n",
		fs.Records, len(fs.Peers), fs.VersionVector)

	// Global estimates with 95% CIs, checked against the ground truth of
	// the FULL population.
	filters := []frapp.QueryFilter{
		{},
		{"sex": "Male"},
		{"age": "(15-35]", "sex": "Male"},
		{"age": "(15-35]", "sex": "Female", "native-country": "United-States"},
	}
	showEstimates(coordClient, schema, population, filters)

	// The hard case: site 0 snapshots its counter (a full replication
	// pull — the same form a checkpoint stores), keeps collecting, then
	// restores the older snapshot (a crash recovery). Generation handling
	// forces the coordinator into a clean full re-pull of that site.
	site0Client, err := frapp.NewCollectionClient(siteTS[0].URL, frapp.WithHTTPClient(siteTS[0].Client()))
	check(err)
	snapshot, err := site0Client.Replicate(0, 0)
	check(err)
	extra, err := frapp.GenerateCensus(5000, 11)
	check(err)
	check(site0Client.SubmitBatch(extra.Records, rng))
	check(coord.SyncAll(context.Background()))
	preRestore, err := coordClient.Stats()
	check(err)

	older, err := frapp.NewShardedCounter(sites[0].CounterScheme(), sites[0].Shards())
	check(err)
	check(older.ApplyDelta(snapshot))
	check(sites[0].ReplaceCounter(older, nil))
	check(coord.SyncAll(context.Background()))
	postRestore, err := coordClient.Stats()
	check(err)
	fmt.Printf("\nsite 0 restored an older snapshot: global %d → %d records "+
		"(the %d post-snapshot submissions left the global view cleanly — no double count, no stale serve)\n",
		preRestore.Records, postRestore.Records, preRestore.Records-postRestore.Records)
	fs, err = coordClient.FederationStats()
	check(err)
	for _, p := range fs.Peers {
		fmt.Printf("  peer %-28s healthy=%-5v syncs=%d full_resyncs=%d records=%d\n",
			p.URL, p.Healthy, p.Syncs, p.FullSyncs, p.Records)
	}
}

// showEstimates prints global estimates next to the full-population
// ground truth only this demo has.
func showEstimates(client *frapp.CollectionClient, schema *frapp.Schema, population *frapp.Database, filters []frapp.QueryFilter) {
	resp, err := client.QueryAll(filters)
	check(err)
	for i, est := range resp.Estimates {
		truth := trueCount(population, schema, filters[i])
		bracket := "MISS"
		if truth >= est.Lo && truth <= est.Hi {
			bracket = "ok"
		}
		fmt.Printf("%-62s  est %8.0f ± %5.0f  CI [%8.0f, %8.0f]  truth %6.0f  %s\n",
			describe(filters[i]), est.Count, est.StdErr, est.Lo, est.Hi, truth, bracket)
	}
}

func describe(f frapp.QueryFilter) string {
	if len(f) == 0 {
		return "(all records, all sites)"
	}
	out := ""
	for k, v := range f {
		if out != "" {
			out += " & "
		}
		out += k + "=" + v
	}
	return out
}

// trueCount scans the ORIGINAL population — which only the demo has;
// no site and no coordinator ever sees a raw record.
func trueCount(db *frapp.Database, schema *frapp.Schema, f frapp.QueryFilter) float64 {
	var items []frapp.Item
	for j, a := range schema.Attrs {
		if cat, ok := f[a.Name]; ok {
			items = append(items, frapp.Item{Attr: j, Value: a.CategoryIndex(cat)})
		}
	}
	set, err := frapp.NewItemset(items...)
	check(err)
	var c float64
	for _, rec := range db.Records {
		if set.Supports(rec) {
			c++
		}
	}
	return c
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
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
