// Package registry hosts many named FRAPP collections inside one
// process — the multi-tenant layer over internal/service. Each
// collection owns a full vertical slice: its schema, privacy contract,
// perturbation scheme, live counter (plain or sliding-window), mining
// job pool, and — when the registry has a base directory — a private
// WAL+checkpoint store under tenants/<name>/. Collections are created,
// inspected, and deleted at runtime through the lifecycle endpoints
// (PUT/GET/DELETE /v1/collections/{name}), every data-plane endpoint is
// reachable path-scoped under /v1/collections/{name}/..., and the
// legacy un-prefixed routes alias the default collection so
// single-tenant deployments and clients keep working unchanged.
//
// Every collection, the default included, is assembled from a
// CollectionSpec by one function (buildCollection). The default is the
// spec passed as Options.Default — frapp-server compiles its flags into
// it — and is what the reserved name "default" means: it keeps its
// store at the base directory root (the single-tenant layout), stays
// out of the manifest, cannot be deleted or re-PUT, and emits its
// metric series without a collection label.
//
// Isolation is structural, not bookkept: collections share nothing but
// the process, the telemetry registry (where every per-collection
// series carries a `collection` label drawn from the registry's closed,
// capped name vocabulary), and the HTTP listener. Creating, filling, or
// deleting one collection cannot change another's answers — there is no
// cross-collection state to leak through.
//
// A PUT builds its collection before answering. Collections recorded
// in the manifest are rebuilt in the background at start: until a
// collection's build finishes, its data plane answers 503 and the
// registry's Ready reports it — per collection — so /readyz gates
// traffic exactly as it does for the single-tenant server.
package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/mining"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// ErrRegistry marks every error produced by this package.
var ErrRegistry = errors.New("registry")

// Create failures that are the caller's state to resolve, not a bad
// spec; the HTTP layer maps each to its own status.
var (
	errConflict = fmt.Errorf("%w: conflict", ErrRegistry)
	errCapacity = fmt.Errorf("%w: capacity", ErrRegistry)
	errClosed   = fmt.Errorf("%w: registry is closed", ErrRegistry)
)

// DefaultCollection is the name the legacy un-prefixed routes alias,
// reserved for the collection built from Options.Default.
const DefaultCollection = "default"

// nameRE is the closed collection-name vocabulary. It doubles as the
// telemetry label contract: every `collection` metric label is a name
// matching this pattern, so the ops plane can never carry record
// vocabulary no matter what a client PUTs.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,63}$`)

// ValidName reports whether name is an acceptable collection name.
// Exposed so tools (frapp-loadgen -collection) can reject bad names
// before a request ever leaves the client.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// manifestFile is the registry's durable spec manifest, next to the
// tenant store directories.
const manifestFile = "collections.json"

// defaultMaxCollections caps concurrently live collections.
const defaultMaxCollections = 32

// SchemaSpec is the wire/manifest form of a schema definition.
type SchemaSpec struct {
	Name  string              `json:"name"`
	Attrs []dataset.Attribute `json:"attrs"`
}

// CollectionSpec declares everything a collection is built from. It is
// the PUT body, the manifest entry, and the rebuild recipe after a
// restart — one JSON value, so identical specs are identical documents.
type CollectionSpec struct {
	Schema *SchemaSpec `json:"schema"`
	// Scheme names the perturbation scheme (gamma, mask, cutpaste);
	// empty means gamma.
	Scheme string  `json:"scheme,omitempty"`
	Rho1   float64 `json:"rho1"`
	Rho2   float64 `json:"rho2"`
	// Shards stripes the ingestion counter; 0 means one per core.
	Shards int `json:"shards,omitempty"`
	// MineWorkers bounds concurrent mining jobs; 0 means the default.
	MineWorkers int `json:"mine_workers,omitempty"`
	// WindowBuckets/WindowBucket, when set, make the collection a
	// sliding window: a ring of WindowBuckets sub-counters each covering
	// WindowBucket (a Go duration string) of wall-clock time. Windowed
	// collections are in-memory only — no store, no federation — and
	// serve the `window` parameter on /v1/query and mining jobs.
	WindowBuckets int    `json:"window_buckets,omitempty"`
	WindowBucket  string `json:"window_bucket,omitempty"`
	// Peers, when set, make the collection a federation coordinator
	// pulling from the listed collector base URLs; it then has no store
	// of its own (the peers own the durable state) and refuses direct
	// submissions, exactly like a -peers frapp-server.
	Peers []string `json:"peers,omitempty"`
	// SyncInterval is the coordinator pull interval (a Go duration
	// string); empty means the federation default.
	SyncInterval string `json:"sync_interval,omitempty"`
}

// schema builds and validates the runtime schema.
func (s *CollectionSpec) schema() (*dataset.Schema, error) {
	if s.Schema == nil {
		return nil, fmt.Errorf("%w: spec has no schema", ErrRegistry)
	}
	sc, err := dataset.NewSchema(s.Schema.Name, s.Schema.Attrs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	return sc, nil
}

// windowed reports whether the spec declares a sliding window.
func (s *CollectionSpec) windowed() bool {
	return s.WindowBuckets != 0 || s.WindowBucket != ""
}

// normalize validates the spec and rewrites it into canonical form so
// that equality of meaning is equality of JSON documents: the scheme
// default is filled in, duration strings are re-rendered ("60s" and
// "1m" become the same spec), and every cross-field constraint is
// checked here — synchronously at PUT time — rather than surfacing
// later from the background build.
func (s *CollectionSpec) normalize() error {
	schema, err := s.schema()
	if err != nil {
		return err
	}
	if s.Scheme == "" {
		s.Scheme = "gamma"
	}
	spec := core.PrivacySpec{Rho1: s.Rho1, Rho2: s.Rho2}
	gamma, err := spec.Gamma()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	if _, err := mining.SchemeForContract(s.Scheme, schema, gamma); err != nil {
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	if s.Shards < 0 {
		return fmt.Errorf("%w: negative shards %d", ErrRegistry, s.Shards)
	}
	if s.MineWorkers < 0 {
		return fmt.Errorf("%w: negative mine_workers %d", ErrRegistry, s.MineWorkers)
	}
	if s.windowed() {
		if s.WindowBuckets < 1 {
			return fmt.Errorf("%w: window_bucket set without window_buckets >= 1", ErrRegistry)
		}
		d, err := time.ParseDuration(s.WindowBucket)
		if err != nil || d <= 0 {
			return fmt.Errorf("%w: bad window_bucket %q (want a positive Go duration)", ErrRegistry, s.WindowBucket)
		}
		s.WindowBucket = d.String()
		if len(s.Peers) > 0 {
			return fmt.Errorf("%w: a windowed collection cannot federate (expiry cannot be replicated)", ErrRegistry)
		}
	}
	if s.SyncInterval != "" {
		if len(s.Peers) == 0 {
			return fmt.Errorf("%w: sync_interval without peers", ErrRegistry)
		}
		d, err := time.ParseDuration(s.SyncInterval)
		if err != nil || d <= 0 {
			return fmt.Errorf("%w: bad sync_interval %q", ErrRegistry, s.SyncInterval)
		}
		s.SyncInterval = d.String()
	}
	for _, p := range s.Peers {
		if strings.TrimSpace(p) == "" {
			return fmt.Errorf("%w: empty peer URL", ErrRegistry)
		}
	}
	return nil
}

// key returns the canonical JSON document of a normalized spec — the
// idempotence token of PUT.
func (s *CollectionSpec) key() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Unreachable: the spec is plain data.
		panic("registry: spec marshal: " + err.Error())
	}
	return string(b)
}

// Collection is one live tenant: a spec plus the server built from it.
// srv, coord, and err are written exactly once, before ready closes.
type Collection struct {
	name string
	spec CollectionSpec

	ready chan struct{}
	srv   *service.Server
	coord *federation.Coordinator
	err   error
}

// Name returns the collection's registry name.
func (c *Collection) Name() string { return c.name }

// Spec returns the collection's normalized spec.
func (c *Collection) Spec() CollectionSpec { return c.spec }

// Ready reports the collection's build outcome without blocking:
// nil once built, the build error if it failed, or a "still
// recovering" error while the background build runs.
func (c *Collection) Ready() error {
	select {
	case <-c.ready:
		return c.err
	default:
		return fmt.Errorf("%w: collection %q is still recovering", ErrRegistry, c.name)
	}
}

// Server returns the collection's server once ready; it blocks-free
// errors while the build is still running or after it failed.
func (c *Collection) Server() (*service.Server, error) {
	if err := c.Ready(); err != nil {
		return nil, err
	}
	return c.srv, nil
}

// AwaitReady blocks until the build finishes and returns its outcome.
func (c *Collection) AwaitReady() error {
	<-c.ready
	return c.err
}

// close shuts the collection down: the federation loop first (so the
// counter stops moving), then a final checkpoint, then the server
// (which owns and closes its store). It returns the checkpoint error.
func (c *Collection) close() error {
	<-c.ready
	if c.coord != nil {
		c.coord.Close()
	}
	if c.srv == nil {
		return nil
	}
	err := c.srv.CheckpointNow()
	c.srv.Close()
	return err
}

// Options configure a Registry.
type Options struct {
	// BaseDir, when set, makes named collections durable: each gets a
	// WAL+checkpoint store under BaseDir/tenants/<name>/, and the spec
	// manifest BaseDir/collections.json rebuilds them at next start.
	// Empty means a memory-only registry.
	BaseDir string
	// MaxCollections caps concurrently live collections (and, at 4x,
	// the lifetime `collection` telemetry label vocabulary). 0 means 32.
	MaxCollections int
	// Metrics, when set, instruments every collection's server under
	// its `collection` label.
	Metrics *telemetry.Registry
	// SyncMode is the WAL fsync policy of every collection's store.
	SyncMode store.SyncMode
	// Default, when set, is built by New before it returns, as the
	// collection named DefaultCollection.
	Default *CollectionSpec
	// ServerOptions are applied to every collection's server: the
	// process-wide knobs no spec carries (query limit, body cap, job
	// TTL, checkpoint and WAL flush cadence, access log).
	ServerOptions []service.Option
}

// Registry is a concurrent set of named collections.
type Registry struct {
	baseDir string
	maxCols int
	metrics *telemetry.Registry
	sync    store.SyncMode
	srvOpts []service.Option
	// ctx bounds the warm federation sync of builds; Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	collections map[string]*Collection
	// everNamed is the lifetime name vocabulary: telemetry series
	// outlive their collection (deliberately — a re-created name reuses
	// its series), so the label cardinality bound must survive churn.
	everNamed map[string]bool
	closed    bool

	// buildDelay, when non-nil, runs at the head of every build — the
	// test seam for driving slow-recovery readiness and slow creates.
	buildDelay func(name string)
}

// New builds a registry. A Default spec is built before New returns,
// and its build error is New's error. When BaseDir holds a manifest
// from a previous run, every recorded collection starts rebuilding in
// the background; gate traffic on Ready.
func New(o Options) (*Registry, error) {
	if o.MaxCollections <= 0 {
		o.MaxCollections = defaultMaxCollections
	}
	r := &Registry{
		baseDir:     o.BaseDir,
		maxCols:     o.MaxCollections,
		metrics:     o.Metrics,
		sync:        o.SyncMode,
		srvOpts:     o.ServerOptions,
		collections: make(map[string]*Collection),
		everNamed:   make(map[string]bool),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	if o.Default != nil {
		spec := *o.Default
		if err := spec.normalize(); err != nil {
			r.cancel()
			return nil, err
		}
		// Built before BaseDir is created: the default's store lives at
		// the BaseDir root, so store.Open is the first to see a regular
		// file there and refuses it as removed single-file state.
		col := &Collection{name: DefaultCollection, spec: spec, ready: make(chan struct{})}
		r.build(col)
		if col.err != nil {
			r.cancel()
			return nil, col.err
		}
		r.collections[DefaultCollection] = col
		r.everNamed[DefaultCollection] = true
	}
	if r.baseDir != "" {
		if err := os.MkdirAll(r.baseDir, 0o755); err != nil {
			r.Close()
			return nil, fmt.Errorf("%w: %v", ErrRegistry, err)
		}
		specs, err := r.loadManifest()
		if err != nil {
			r.Close()
			return nil, err
		}
		for name, spec := range specs {
			col := &Collection{name: name, spec: spec, ready: make(chan struct{})}
			r.collections[name] = col
			r.everNamed[name] = true
			go r.build(col)
		}
	}
	return r, nil
}

// Create registers a new named collection and builds it before
// returning, so a caller acting on the result finds the collection
// serving (or failed) — never still recovering. It is idempotent:
// re-PUTting an identical spec returns the existing collection
// (created=false) once its build has finished; a different spec under
// a live name is a conflict, never an overwrite. The build runs outside
// the registry lock, so other collections stay manageable meanwhile.
func (r *Registry) Create(name string, spec CollectionSpec) (col *Collection, created bool, err error) {
	if !nameRE.MatchString(name) {
		return nil, false, fmt.Errorf("%w: bad collection name %q (want %s)", ErrRegistry, name, nameRE)
	}
	if err := spec.normalize(); err != nil {
		return nil, false, err
	}
	col, created, err = r.register(name, spec)
	if err != nil {
		return nil, false, err
	}
	// A failed build is not an error of Create: the collection stays
	// registered and reports state "failed", as at boot.
	if created {
		r.build(col)
	} else {
		_ = col.AwaitReady()
	}
	return col, created, nil
}

// register is Create's locked half: it validates the name against the
// live set and the caps, records the collection, and persists the
// manifest. created=false returns the existing identical collection.
func (r *Registry) register(name string, spec CollectionSpec) (col *Collection, created bool, err error) {
	if name == DefaultCollection {
		return nil, false, fmt.Errorf("%w: collection %q is flag-configured; manage it via server flags", errConflict, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, false, errClosed
	}
	if existing, ok := r.collections[name]; ok {
		if existing.spec.key() == spec.key() {
			return existing, false, nil
		}
		return nil, false, fmt.Errorf("%w: collection %q already exists with a different spec", errConflict, name)
	}
	if len(r.collections) >= r.maxCols {
		return nil, false, fmt.Errorf("%w: collection limit %d reached", errCapacity, r.maxCols)
	}
	// The telemetry label vocabulary is append-only across churn; cap it
	// so delete/create cycles cannot grow series without bound.
	if !r.everNamed[name] && len(r.everNamed) >= 4*r.maxCols {
		return nil, false, fmt.Errorf("%w: lifetime collection-name budget %d exhausted (reuse a previous name or restart)", errCapacity, 4*r.maxCols)
	}
	col = &Collection{name: name, spec: spec, ready: make(chan struct{})}
	r.collections[name] = col
	r.everNamed[name] = true
	if err := r.persistManifestLocked(); err != nil {
		delete(r.collections, name)
		return nil, false, err
	}
	return col, true, nil
}

// Get returns the named collection.
func (r *Registry) Get(name string) (*Collection, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	col, ok := r.collections[name]
	if !ok {
		return nil, fmt.Errorf("%w: no collection %q", ErrRegistry, name)
	}
	return col, nil
}

// Delete removes a named collection: unregisters it (new requests 404
// immediately), persists the manifest, then shuts the server down and
// removes its tenant store directory. The default collection refuses.
func (r *Registry) Delete(name string) error {
	if name == DefaultCollection {
		return fmt.Errorf("%w: collection %q is flag-configured and cannot be deleted", ErrRegistry, name)
	}
	r.mu.Lock()
	col, ok := r.collections[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: no collection %q", ErrRegistry, name)
	}
	delete(r.collections, name)
	err := r.persistManifestLocked()
	if err != nil {
		// Deletion proceeds regardless: the live collection is gone
		// either way, and a stale manifest entry only costs a rebuild of
		// an empty store at next start.
		err = fmt.Errorf("%w: manifest update after delete: %v", ErrRegistry, err)
	}
	r.mu.Unlock()
	// Shutdown happens outside the lock: a build (or WAL recovery) may
	// be in flight, and close waits for it. The checkpoint error does
	// not matter: the store directory goes next.
	_ = col.close()
	if r.baseDir != "" {
		os.RemoveAll(r.storeDir(name))
	}
	return err
}

// Names returns the live collection names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.collections))
	for name := range r.collections {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Ready reports aggregate readiness: nil only when every collection's
// build has succeeded, otherwise one error naming each collection that
// is still recovering or failed — the per-collection breakdown /readyz
// serves.
func (r *Registry) Ready() error {
	r.mu.Lock()
	cols := make([]*Collection, 0, len(r.collections))
	for _, c := range r.collections {
		cols = append(cols, c)
	}
	r.mu.Unlock()
	var pending []string
	for _, c := range cols {
		select {
		case <-c.ready:
			if c.err != nil {
				pending = append(pending, fmt.Sprintf("%s: failed: %v", c.name, c.err))
			}
		default:
			pending = append(pending, c.name+": recovering")
		}
	}
	if len(pending) == 0 {
		return nil
	}
	sort.Strings(pending)
	return fmt.Errorf("%w: collections not ready: %s", ErrRegistry, strings.Join(pending, "; "))
}

// AwaitReady blocks until every currently registered collection's
// build finishes, then returns the aggregate outcome.
func (r *Registry) AwaitReady() error {
	r.mu.Lock()
	cols := make([]*Collection, 0, len(r.collections))
	for _, c := range r.collections {
		cols = append(cols, c)
	}
	r.mu.Unlock()
	for _, c := range cols {
		<-c.ready
	}
	return r.Ready()
}

// Close shuts down every collection (waiting for in-flight builds
// first), each with a final checkpoint, and refuses further lifecycle
// calls. It returns the joined checkpoint errors.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	cols := make([]*Collection, 0, len(r.collections))
	for _, c := range r.collections {
		cols = append(cols, c)
	}
	r.mu.Unlock()
	r.cancel()
	var errs []error
	for _, c := range cols {
		if err := c.close(); err != nil {
			errs = append(errs, fmt.Errorf("%w: final checkpoint of collection %q: %w", ErrRegistry, c.name, err))
		}
	}
	return errors.Join(errs...)
}

// storeDir is a collection's store directory: the BaseDir root for the
// default (the single-tenant layout, so existing state directories keep
// recovering), tenants/<name>/ for every other collection.
func (r *Registry) storeDir(name string) string {
	if name == DefaultCollection {
		return r.baseDir
	}
	return filepath.Join(r.baseDir, "tenants", name)
}

// build constructs the collection's server and publishes the outcome
// by closing ready — synchronously for Create, in the background for
// the manifest replay at start.
func (r *Registry) build(col *Collection) {
	if d := r.buildDelay; d != nil {
		d(col.name)
	}
	col.srv, col.coord, col.err = r.buildCollection(col.name, col.spec)
	close(col.ready)
}

// buildCollection assembles one collection's full vertical slice from
// its spec: scheme contract, counter (ring or plain), job pool,
// telemetry, and — durable, non-windowed, non-federated specs only —
// the store, recovered before the server takes traffic. A coordinator
// runs its warm federation sync here, so a collection is ready only
// once it serves its first merged view.
func (r *Registry) buildCollection(name string, spec CollectionSpec) (*service.Server, *federation.Coordinator, error) {
	schema, err := spec.schema()
	if err != nil {
		return nil, nil, err
	}
	opts := []service.Option{
		service.WithScheme(spec.Scheme),
		service.WithShards(spec.Shards),
		service.WithMineWorkers(spec.MineWorkers),
	}
	opts = append(opts, r.srvOpts...)
	// The default's series stay unlabeled, as they were before the
	// registry existed; every other collection's carry its name.
	if name != DefaultCollection {
		opts = append(opts, service.WithCollectionLabel(name))
	}
	if r.metrics != nil {
		opts = append(opts, service.WithTelemetry(r.metrics))
	}
	var st store.StateStore
	switch {
	case spec.windowed():
		bucket, err := time.ParseDuration(spec.WindowBucket)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrRegistry, err)
		}
		opts = append(opts, service.WithWindow(spec.WindowBuckets, bucket))
	case r.baseDir != "" && len(spec.Peers) == 0:
		fs, err := store.Open(r.storeDir(name), store.WithSyncMode(r.sync))
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrRegistry, err)
		}
		st = fs
		opts = append(opts, service.WithStore(fs))
	}
	srv, err := service.NewServer(schema, core.PrivacySpec{Rho1: spec.Rho1, Rho2: spec.Rho2}, opts...)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, nil, err
	}
	var coord *federation.Coordinator
	if len(spec.Peers) > 0 {
		var fopts []federation.Option
		if spec.SyncInterval != "" {
			d, _ := time.ParseDuration(spec.SyncInterval)
			fopts = append(fopts, federation.WithSyncInterval(d))
		}
		// The federation instruments are registered un-labeled, so only
		// the default coordinator exposes them.
		if name == DefaultCollection && r.metrics != nil {
			fopts = append(fopts, federation.WithMetrics(r.metrics))
		}
		// The coordinator is built over the server's own scheme
		// contract, so its fingerprint can never drift from what
		// ReplaceCounter accepts.
		coord, err = federation.NewCoordinator(srv.CounterScheme(), spec.Peers, srv.ReplaceCounter, fopts...)
		if err == nil {
			err = srv.EnableFederation(coord)
		}
		if err != nil {
			if coord != nil {
				coord.Close()
			}
			srv.Close()
			return nil, nil, err
		}
		// Per-peer failures of the warm pass are not fatal: the
		// background loops keep retrying with backoff, and degraded
		// peers show in the federation stats and metrics.
		if err := coord.SyncAll(r.ctx); err != nil {
			log.Printf("registry: collection %s: initial federation sync: %v", name, err)
		}
		coord.Start()
	}
	return srv, coord, nil
}

// manifest is the on-disk registry state: every named collection's
// normalized spec, from which a restart rebuilds the fleet.
type manifest struct {
	Version     int                       `json:"version"`
	Collections map[string]CollectionSpec `json:"collections"`
}

// loadManifest reads the manifest; a missing file is an empty fleet.
func (r *Registry) loadManifest() (map[string]CollectionSpec, error) {
	b, err := os.ReadFile(filepath.Join(r.baseDir, manifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest %s is unreadable (restore or delete it): %v",
			ErrRegistry, filepath.Join(r.baseDir, manifestFile), err)
	}
	for name, spec := range m.Collections {
		if !nameRE.MatchString(name) || name == DefaultCollection {
			return nil, fmt.Errorf("%w: manifest holds bad collection name %q", ErrRegistry, name)
		}
		spec := spec
		if err := spec.normalize(); err != nil {
			return nil, fmt.Errorf("%w: manifest entry %q: %v", ErrRegistry, name, err)
		}
		m.Collections[name] = spec
	}
	return m.Collections, nil
}

// persistManifestLocked writes the manifest atomically (tmp + rename +
// directory fsync). Caller holds r.mu. Memory-only registries skip it.
func (r *Registry) persistManifestLocked() error {
	if r.baseDir == "" {
		return nil
	}
	m := manifest{Version: 1, Collections: make(map[string]CollectionSpec)}
	for name, col := range r.collections {
		if name != DefaultCollection { // flag-configured, not manifest-managed
			m.Collections[name] = col.spec
		}
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	tmp, err := os.CreateTemp(r.baseDir, ".collections-*")
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	if err := os.Rename(tmpName, filepath.Join(r.baseDir, manifestFile)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	if err := store.SyncDir(r.baseDir); err != nil {
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	return nil
}
