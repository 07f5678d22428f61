package serve

// Byte-identity gates for the lean retained run: compacting a finished
// run's span tree and timeline changes what the registry holds, not
// what the endpoints serve, and the pooled response encoder sends
// exactly what a streaming indenting json.Encoder would.

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"harmonia"
	"harmonia/internal/session"
	"harmonia/internal/timeline"
	"harmonia/internal/trace"
)

// newBareServer returns a server without telemetry and its test
// listener.
func newBareServer(t *testing.T, sys *harmonia.System) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(sys, Options{Logger: log.New(io.Discard, "", 0)})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}

// TestCompactionKeepsServedBytes: /v1/runs/{id}, /spans (native and
// Chrome) and /timeline serve the same bytes before and after the run
// is compacted as Server.execute compacts it, and spans written after
// compaction serve exactly as on a twin recorder never compacted. The
// session's own Finish has already trimmed the timeline when the run
// returns, so its served bytes are checked against a twin's; the
// timeline package pins Finish's trim against an unfinished twin.
func TestCompactionKeepsServedBytes(t *testing.T) {
	sys := harmonia.NewSystem()
	srv, ts := newBareServer(t, sys)
	app := harmonia.App("SRAD")
	record := func() (*trace.Recorder, *timeline.Recorder, *session.Report) {
		var ticks time.Duration
		rec := trace.New(11, trace.WithClock(func() time.Duration { ticks += time.Microsecond; return ticks }))
		tl := timeline.New()
		rep, err := sys.RunContext(t.Context(), app, sys.Harmonia(),
			harmonia.RunWithTrace(rec), harmonia.RunWithTimeline(tl))
		if err != nil {
			t.Fatal(err)
		}
		return rec, tl, rep
	}
	rec, tl, rep := record()
	twin, twinTL, _ := record()
	run := srv.reg.create(app.Name, "harmonia")
	run.setTracer(rec)
	run.setTimeline(tl)
	run.start(srv.now())
	run.finish(rep, nil, srv.now())

	base := ts.URL + "/v1/runs/" + run.ID
	spanPaths := []string{"/spans", "/spans?format=chrome"}
	// get serves every endpoint; the twin takes one snapshot per spans
	// request so both recorders' clocks read in step.
	get := func() map[string]string {
		out := map[string]string{}
		for _, p := range append([]string{"", "/timeline"}, spanPaths...) {
			out[p] = getBody(t, base+p)
		}
		for range spanPaths {
			twin.Snapshot()
		}
		return out
	}
	before := get()
	var twinTimeline bytes.Buffer
	if err := twinTL.Snapshot().WriteJSON(&twinTimeline); err != nil {
		t.Fatal(err)
	}
	if before["/timeline"] != twinTimeline.String() {
		t.Error("the served timeline differs from the twin's")
	}
	run.Tracer().Compact() // as Server.execute and finishTimeline do
	run.Timeline().Finish()
	after := get()
	for p, want := range before {
		if after[p] != want {
			t.Errorf("GET %s changed across compaction:\n%.1200s\n---\n%.1200s", base+p, want, after[p])
		}
	}

	for _, r := range []*trace.Recorder{rec, twin} {
		late := r.Start(nil, "late")
		late.Attr("phase", "after-compaction").Float("share", 0.25)
		late.Child("inner").Int("n", 3).End()
		late.End()
	}
	var native, chrome bytes.Buffer
	if err := twin.Snapshot().WriteJSON(&native); err != nil {
		t.Fatal(err)
	}
	if err := twin.Snapshot().WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if got := getBody(t, base+"/spans"); got != native.String() || !strings.Contains(got, `"after-compaction"`) {
		t.Errorf("spans written after compaction serve differently from the uncompacted twin")
	}
	if got := getBody(t, base+"/spans?format=chrome"); got != chrome.String() {
		t.Errorf("Chrome spans written after compaction serve differently from the uncompacted twin")
	}
}

// TestWriteJSONMatchesStreamingEncoder: the pooled writeJSON sends the
// bytes an indenting json.Encoder streaming to the response would, for
// run, list and error bodies, across pool reuse, for a body too large
// to keep pooled, and (no body) for a value that fails to encode.
func TestWriteJSONMatchesStreamingEncoder(t *testing.T) {
	sys := harmonia.NewSystem()
	srv, ts := newBareServer(t, sys)
	id := runToDone(t, ts, `{"app":"SRAD","policy":"harmonia"}`)
	run, ok := srv.reg.get(id)
	if !ok {
		t.Fatal("served run not retained")
	}
	summary := run.JSON()
	summary.Report = nil
	list := struct {
		Runs []RunJSON `json:"runs"`
	}{Runs: []RunJSON{summary, summary}}
	big := make([]string, 0, 4096)
	for i := 0; len(big) < cap(big); i++ {
		big = append(big, strings.Repeat("x", 100))
	}
	bodies := map[string]any{
		"run":   run.JSON(),
		"list":  list,
		"error": errorJSON{Error: `unknown app "<nope>" & more`},
		"big":   big,
		"nan":   map[string]float64{"x": math.NaN()},
	}
	for round := 0; round < 3; round++ {
		for name, v := range bodies {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			wantErr := enc.Encode(v)
			if (wantErr != nil) != (name == "nan") {
				t.Fatalf("%s: reference encode error %v", name, wantErr)
			}
			w := httptest.NewRecorder()
			writeJSON(w, http.StatusTeapot, v)
			if w.Code != http.StatusTeapot || w.Header().Get("Content-Type") != "application/json" {
				t.Errorf("%s: status %d, Content-Type %q", name, w.Code, w.Header().Get("Content-Type"))
			}
			if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
				t.Errorf("round %d, %s body: writeJSON sent %d bytes, the streaming encoder %d:\n%.600s\n---\n%.600s",
					round, name, w.Body.Len(), want.Len(), w.Body.String(), want.String())
			}
		}
	}
}
