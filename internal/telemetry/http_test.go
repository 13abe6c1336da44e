package telemetry

import (
	"io"
	"net/http"
	"testing"
)

// TestServeEndpoints: a fresh sink, with no plan attached, serves every
// endpoint of the introspection server, and nothing else.
func TestServeEndpoints(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for path, want := range map[string]int{
		"/metrics":      http.StatusOK,
		"/statusz":      http.StatusOK,
		"/epochz":       http.StatusOK,
		"/debug/pprof/": http.StatusOK,
		"/tracez":       http.StatusNotFound,
	} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}
