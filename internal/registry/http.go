package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// HTTP surface of the registry.
//
//	PUT    /v1/collections/{name}        create (idempotent on identical spec)
//	GET    /v1/collections/{name}        inspect one collection
//	DELETE /v1/collections/{name}        delete (404 unknown, 403 default)
//	GET    /v1/collections               list all collections
//	ANY    /v1/collections/{name}/...    the named collection's data plane
//	ANY    /...                          the default collection (legacy alias)
//
// The default collection is built from the flags as the default spec
// (Options.Default); PUT over it answers 409 and DELETE 403.
//
// The data-plane alias strips the /v1/collections/{name} prefix and
// ALSO tolerates a repeated /v1: both /v1/collections/a/submit and
// /v1/collections/a/v1/submit reach POST /v1/submit of collection a.
// The second form is what makes an unmodified service.Client — which
// appends /v1/... to its base URL — work against a collection-scoped
// base URL like http://host/v1/collections/a, and with it every
// existing tool (frapp-loadgen -collection, federation peer URLs).

// maxSpecBody caps a PUT body; specs are small documents.
const maxSpecBody = 1 << 20

// CollectionInfo is the wire form of one collection's state.
type CollectionInfo struct {
	Name string `json:"name"`
	// State is "ready", "recovering", or "failed".
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Records is the live record count, present only when ready.
	Records int `json:"records,omitempty"`
	// Default marks the collection the un-prefixed legacy routes serve.
	Default bool           `json:"default,omitempty"`
	Spec    CollectionSpec `json:"spec"`
}

// info snapshots one collection's state.
func (c *Collection) info() CollectionInfo {
	ci := CollectionInfo{Name: c.name, Spec: c.spec, Default: c.name == DefaultCollection}
	select {
	case <-c.ready:
		if c.err != nil {
			ci.State = "failed"
			ci.Error = c.err.Error()
		} else {
			ci.State = "ready"
			ci.Records = c.srv.N()
		}
	default:
		ci.State = "recovering"
	}
	return ci
}

// Handler returns the registry's full HTTP surface: lifecycle
// endpoints, per-collection data planes, and the legacy alias onto the
// default collection.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/collections", r.handleList)
	mux.HandleFunc("GET /v1/collections/{name}", r.handleGet)
	mux.HandleFunc("PUT /v1/collections/{name}", r.handlePut)
	mux.HandleFunc("DELETE /v1/collections/{name}", r.handleDelete)
	mux.HandleFunc("/v1/collections/{name}/{rest...}", r.handleDataPlane)
	mux.HandleFunc("/", r.handleDefault)
	return mux
}

func (r *Registry) handleList(w http.ResponseWriter, _ *http.Request) {
	infos := make([]CollectionInfo, 0)
	for _, name := range r.Names() {
		if col, err := r.Get(name); err == nil {
			infos = append(infos, col.info())
		}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (r *Registry) handleGet(w http.ResponseWriter, req *http.Request) {
	col, err := r.Get(req.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, col.info())
}

func (r *Registry) handlePut(w http.ResponseWriter, req *http.Request) {
	req.Body = http.MaxBytesReader(w, req.Body, maxSpecBody)
	var spec CollectionSpec
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("%w: bad spec JSON: %v", ErrRegistry, err))
		return
	}
	col, created, err := r.Create(req.PathValue("name"), spec)
	if err != nil {
		httpError(w, putErrorStatus(err), err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, col.info())
}

// putErrorStatus maps Create failures onto HTTP statuses by error
// kind — never by message, which echoes client input: conflicts and
// caps are the caller's state to resolve, the rest are bad specs.
func putErrorStatus(err error) int {
	switch {
	case errors.Is(err, errConflict):
		return http.StatusConflict
	case errors.Is(err, errCapacity):
		return http.StatusForbidden
	case errors.Is(err, errClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (r *Registry) handleDelete(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	if _, err := r.Get(name); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	if err := r.Delete(name); err != nil {
		status := http.StatusInternalServerError
		if name == DefaultCollection {
			status = http.StatusForbidden
		}
		httpError(w, status, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDataPlane routes a collection-scoped request into that
// collection's own server, rewriting the path back to the un-prefixed
// form its mux was built for.
func (r *Registry) handleDataPlane(w http.ResponseWriter, req *http.Request) {
	col, err := r.Get(req.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	srv, err := col.Server()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	inner := "/v1/" + strings.TrimPrefix(req.PathValue("rest"), "v1/")
	r2 := req.Clone(req.Context())
	r2.URL.Path = inner
	r2.URL.RawPath = ""
	srv.Handler().ServeHTTP(w, r2)
}

// handleDefault serves the legacy un-prefixed routes from the default
// collection, unchanged — single-tenant clients never see the registry.
func (r *Registry) handleDefault(w http.ResponseWriter, req *http.Request) {
	col, err := r.Get(DefaultCollection)
	if err != nil {
		httpError(w, http.StatusNotFound,
			errors.New("registry: no default collection; use /v1/collections/{name}/..."))
		return
	}
	srv, err := col.Server()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	srv.Handler().ServeHTTP(w, req)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
