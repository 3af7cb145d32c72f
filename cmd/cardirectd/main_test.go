package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/persist"
)

// buildBinary compiles cardirectd once per test into a temp dir.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cardirectd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building cardirectd: %v", err)
	}
	return bin
}

// startDaemon launches the binary with args plus an ephemeral port and
// returns the process and resolved base URL (read from the stdout listen
// line).
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	return startDaemonLogging(t, bin, os.Stderr, args...)
}

// startDaemonLogging is startDaemon with the daemon's log (its stderr)
// written to stderr.
func startDaemonLogging(t *testing.T, bin string, stderr io.Writer, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no listen line on stdout: %v", sc.Err())
	}
	line := sc.Text()
	const prefix = "cardirectd: listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected stdout line: %q", line)
	}
	return cmd, "http://" + strings.TrimPrefix(line, prefix)
}

// TestCardirectdStartupLog: the daemon's own log splits set-up time. The
// "configuration loaded" line carries load_ms (reading the document) and
// track_ms (building the store); "data dir recovered" carries seed_load_ms
// when a -config seed was parsed, and not when none was.
func TestCardirectdStartupLog(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary smoke test in -short mode")
	}
	bin := buildBinary(t)
	doc, err := config.Greece().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "greece.xml")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	data := t.TempDir()
	for _, c := range []struct {
		args          []string
		msg           string
		want, without []string
	}{
		{[]string{"-config", path}, "configuration loaded", []string{"load_ms", "track_ms"}, nil},
		{[]string{"-config", path, "-data", data}, "data dir recovered", []string{"seed_load_ms", "recovery_ms"}, nil},
		{[]string{"-data", data}, "data dir recovered", []string{"recovery_ms"}, []string{"seed_load_ms"}},
	} {
		line := startupLogLine(t, bin, c.msg, c.args...)
		for _, k := range c.want {
			if v, ok := line[k].(float64); !ok || v < 0 {
				t.Errorf("%v: %q line has %s = %v, want a duration in ms", c.args, c.msg, k, line[k])
			}
		}
		for _, k := range c.without {
			if v, ok := line[k]; ok {
				t.Errorf("%v: %q line has %s = %v, want none", c.args, c.msg, k, v)
			}
		}
	}
}

// startupLogLine runs the daemon with JSON logs until it listens, stops
// it, and returns the fields of its first log line with message msg.
func startupLogLine(t *testing.T, bin, msg string, args ...string) map[string]any {
	t.Helper()
	pr, pw := io.Pipe()
	found := make(chan map[string]any, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			var rec map[string]any
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec["msg"] == msg && len(found) == 0 {
				found <- rec
			}
		}
	}()
	cmd, _ := startDaemonLogging(t, bin, pw, append(args, "-log-json")...)
	// The line is logged before the daemon listens, so it is there now.
	var line map[string]any
	select {
	case line = <-found:
	case <-time.After(10 * time.Second):
		t.Errorf("%v: no %q log line", args, msg)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("%v: daemon exit: %v", args, err)
	}
	pw.Close()
	return line
}

// getJSON fetches path until the server answers, failing on non-200.
func getJSON(t *testing.T, base, path string, out any) {
	t.Helper()
	var lastErr error
	for i := 0; i < 50; i++ {
		resp, err := http.Get(base + path)
		if err != nil {
			lastErr = err
			time.Sleep(20 * time.Millisecond)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading: %v", path, err)
		}
		// Unwrap the {"data": ...} response envelope.
		var env struct {
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(raw, &env); err == nil && env.Data != nil {
			raw = env.Data
		}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
		return
	}
	t.Fatalf("GET %s never succeeded: %v", path, lastErr)
}

// TestCardirectdSmoke builds the real binary, serves the Greece fixture on
// an ephemeral port, exercises the health and relation endpoints over the
// wire, and checks that SIGTERM drains to a zero exit. This is the CI
// smoke job (make smoke).
func TestCardirectdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary smoke test in -short mode")
	}
	bin := buildBinary(t)
	cmd, base := startDaemon(t, bin, "-greece")

	var health struct {
		Status  string `json:"status"`
		Regions int    `json:"regions"`
	}
	getJSON(t, base, "/healthz", &health)
	if health.Status != "ok" || health.Regions != 11 {
		t.Fatalf("healthz = %+v", health)
	}

	var rel struct {
		Relation string `json:"relation"`
	}
	getJSON(t, base, "/v1/relation?primary=attica&reference=peloponnesos", &rel)
	if rel.Relation == "" {
		t.Fatal("empty relation")
	}

	// Graceful shutdown: SIGTERM drains to exit code 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cardirectd exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cardirectd did not exit within 15s of SIGTERM")
	}
}

// TestCardirectdCrashRecovery is the crash-consistency harness: a durable
// daemon takes a stream of region adds over HTTP and is SIGKILLed
// mid-stream; the restarted daemon must recover the seed plus a contiguous
// prefix of the issued adds covering every acknowledged one (-fsync always:
// acked ⇒ durable), and its served relations must equal a from-scratch
// batch computation over the recovered geometries.
func TestCardirectdCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary crash test in -short mode")
	}
	bin := buildBinary(t)
	dataDir := t.TempDir()
	cmd, base := startDaemon(t, bin, "-greece", "-data", dataDir, "-fsync", "always")

	// Wait for readiness, then stream adds while a timer pulls the plug.
	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, base, "/healthz", &health)

	var acked atomic.Int64
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(300 * time.Millisecond)
		cmd.Process.Signal(syscall.SIGKILL)
		cmd.Wait()
	}()

	const maxAdds = 400
	issued := make([]string, 0, maxAdds)
	for i := 0; i < maxAdds; i++ {
		id := fmt.Sprintf("crash%03d", i)
		x := 300 + float64(i%20)*25
		y := 300 + float64(i/20)*25
		body, _ := json.Marshal(map[string]any{
			"id":  id,
			"wkt": fmt.Sprintf("POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))", x, y, x+20, y, x+20, y+20, x, y+20, x, y),
		})
		issued = append(issued, id)
		resp, err := http.Post(base+"/v1/regions", "application/json", bytes.NewReader(body))
		if err != nil {
			break // the kill landed mid-request
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code != http.StatusCreated {
			t.Fatalf("POST /v1/regions %s: status %d", id, code)
		}
		acked.Add(1)
	}
	<-killed
	ackedN := int(acked.Load())
	if ackedN == 0 {
		t.Fatal("daemon died before acknowledging any edit; nothing to verify")
	}
	t.Logf("killed after %d acknowledged adds", ackedN)

	// Restart from the data directory alone: no -greece, no -config.
	_, base2 := startDaemon(t, bin, "-data", dataDir)

	var status struct {
		Seq     uint64 `json:"seq"`
		Err     string `json:"err"`
		Skipped int    `json:"skipped_records"`
	}
	getJSON(t, base2, "/v1/admin/status", &status)
	if status.Err != "" || status.Skipped != 0 {
		t.Fatalf("recovery not clean: %+v", status)
	}

	var regions struct {
		Regions []struct {
			ID string `json:"id"`
		} `json:"regions"`
	}
	getJSON(t, base2, "/v1/regions", &regions)
	recovered := make(map[string]bool, len(regions.Regions))
	for _, r := range regions.Regions {
		recovered[r.ID] = true
	}

	// Invariant 1: a contiguous prefix of the issued stream survived, and
	// it covers every acknowledged edit.
	n := 0
	for _, id := range issued {
		if !recovered[id] {
			break
		}
		n++
	}
	for _, id := range issued[n:] {
		if recovered[id] {
			t.Fatalf("recovered set is not a prefix: %s survived but an earlier add did not", id)
		}
	}
	if n < ackedN {
		t.Fatalf("acknowledged edit lost: %d acked, only prefix of %d recovered", ackedN, n)
	}
	if want := 11 + n; len(recovered) != want {
		t.Fatalf("recovered %d regions, want Greece's 11 + %d adds", len(recovered), n)
	}
	t.Logf("recovered %d/%d issued adds (>= %d acked)", n, len(issued), ackedN)

	// Invariant 2 (differential): the served relations equal a from-scratch
	// batch computation over the recovered geometries.
	named := make([]core.NamedRegion, 0, len(recovered))
	for _, r := range regions.Regions {
		var detail struct {
			WKT string `json:"wkt"`
		}
		getJSON(t, base2, "/v1/regions/"+r.ID, &detail)
		g, err := geom.ParseWKT(detail.WKT)
		if err != nil {
			t.Fatalf("parsing recovered geometry of %s: %v", r.ID, err)
		}
		named = append(named, core.NamedRegion{Name: r.ID, Region: g})
	}
	wantCDR, err := core.BatchCDR(t.Context(), named, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPct, err := core.BatchPct(t.Context(), named, nil)
	if err != nil {
		t.Fatal(err)
	}

	var served struct {
		Pairs []struct {
			Primary   string             `json:"primary"`
			Reference string             `json:"reference"`
			Relation  string             `json:"relation"`
			Pct       map[string]float64 `json:"pct"`
		} `json:"pairs"`
	}
	getJSON(t, base2, "/v1/relations", &served)
	if len(served.Pairs) != len(wantCDR.Pairs) {
		t.Fatalf("served %d pairs, recomputed %d", len(served.Pairs), len(wantCDR.Pairs))
	}
	for i, p := range served.Pairs {
		w := wantCDR.Pairs[i]
		if p.Primary != w.Primary || p.Reference != w.Reference || p.Relation != w.Relation.String() {
			t.Fatalf("pair %d: served %s/%s=%s, recomputed %s/%s=%s",
				i, p.Primary, p.Reference, p.Relation, w.Primary, w.Reference, w.Relation)
		}
	}

	getJSON(t, base2, "/v1/relations?pct=1", &served)
	if len(served.Pairs) != len(wantPct.Pairs) {
		t.Fatalf("served %d pct pairs, recomputed %d", len(served.Pairs), len(wantPct.Pairs))
	}
	for i, p := range served.Pairs {
		w := wantPct.Pairs[i]
		if p.Primary != w.Primary || p.Reference != w.Reference {
			t.Fatalf("pct pair %d names: %s/%s vs %s/%s", i, p.Primary, p.Reference, w.Primary, w.Reference)
		}
		for _, tile := range core.Tiles() {
			got := p.Pct[tile.String()] // zero tiles are omitted on the wire
			if want := w.Matrix.Get(tile); math.Abs(got-want) > 1e-9 {
				t.Fatalf("pct pair %s/%s tile %s: served %v, recomputed %v",
					p.Primary, p.Reference, tile, got, want)
			}
		}
	}

	// The recovered world leaves the service as the paper's XML: its
	// snapshot body, through cardirect compute, validates.
	cli := filepath.Join(t.TempDir(), "cardirect")
	if out, err := exec.Command("go", "build", "-o", cli, "../cardirect").CombinedOutput(); err != nil {
		t.Fatalf("building cardirect: %v\n%s", err, out)
	}
	code, _, snapshot := getRaw(t, base2, "/v1/replication/snapshot")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/replication/snapshot: %d", code)
	}
	export := exec.Command(cli, "compute")
	export.Stdin = bytes.NewReader(snapshot)
	xml, err := export.Output()
	if err != nil {
		t.Fatalf("cardirect compute of the recovered snapshot: %v", err)
	}
	validate := exec.Command(cli, "validate")
	validate.Stdin = bytes.NewReader(xml)
	out, err := validate.Output()
	if want := fmt.Sprintf("OK: %d region(s)", len(recovered)); err != nil || !strings.Contains(string(out), want) {
		t.Fatalf("cardirect validate of the export: %q, %v; want %q", out, err, want)
	}
}

// TestCardirectdDataDirOwner: a data directory has one owner. While a
// durable daemon serves from -data D, a second daemon given -data D and a
// replica given -replica-data D each exit non-zero with an error naming D
// and change none of its files, and the first daemon goes on serving and
// logging edits.
func TestCardirectdDataDirOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary smoke test in -short mode")
	}
	bin := buildBinary(t)
	dataDir := t.TempDir()
	_, base := startDaemon(t, bin, "-greece", "-data", dataDir)
	addRegion(t, base, "before", 400, 500)
	snapshotOf := func() map[string]string {
		files := map[string]string{}
		entries, err := os.ReadDir(dataDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dataDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	before := snapshotOf()
	for what, args := range map[string][]string{
		"a second -data daemon": {"-greece", "-data", dataDir},
		"a replica":             {"-role", "replica", "-follow", base, "-replica-data", dataDir},
	} {
		ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
		out, err := exec.CommandContext(ctx, bin, append(args, "-addr", "127.0.0.1:0")...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() <= 0 {
			t.Fatalf("%s on a held directory: %v, want a non-zero exit\n%s", what, err, out)
		}
		if !strings.Contains(string(out), "data dir "+dataDir+": held by another store") {
			t.Errorf("%s: the refusal does not name %s:\n%s", what, dataDir, out)
		}
		if after := snapshotOf(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s changed the held directory", what)
		}
	}
	addRegion(t, base, "after", 450, 500)
	var status struct {
		Err     string `json:"err"`
		Regions int    `json:"regions"`
	}
	getJSON(t, base, "/v1/admin/status", &status)
	if status.Err != "" || status.Regions != 13 {
		t.Fatalf("the owner after the refusals: %+v, want 13 regions and no error", status)
	}
}

// TestRunFlagErrors covers the config-resolution failure modes without
// binding a socket.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                              // no configuration
		{"-greece", "-config", "x.xml"}, // both sources
		{"-config", filepath.Join(t.TempDir(), "missing.xml")},
		{"-data", t.TempDir()},                                   // empty data dir needs a seed
		{"-greece", "-data", t.TempDir(), "-fsync", "sometimes"}, // bad policy
		{"-greece", "-pct", "maybe"},                             // bad on/off value
		{"-greece", "-role", "observer"},                         // unknown role
		{"-role", "replica"},                                     // replica needs -follow
		{"-role", "router"},                                      // router needs -primary
	} {
		if err := run(args, os.Stdout); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestFlagsDocumented: API.md's "Flags:" paragraphs, between its "Start it
// with:" line and its first section heading, name every flag of the command
// and nothing that is not one.
func TestFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, running, ok := strings.Cut(string(doc), "Start it with:")
	running, _, ok2 := strings.Cut(running, "\n## ")
	if !ok || !ok2 {
		t.Fatal("API.md lost its \"Start it with:\" paragraph or the section after it")
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`-([a-z-]+)[ `]").FindAllStringSubmatch(running, -1) {
		documented[m[1]] = true
	}
	fs, _ := newFlagSet()
	fs.VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("API.md does not document the -%s flag", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("API.md documents a -%s flag the command does not have", name)
	}
}

// getRaw fetches path without retries and returns status and body.
func getRaw(t *testing.T, base, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestCardirectdConfigTakesSnapshot: -config reads a binary snapshot as it
// reads the paper's XML. A daemon seeded from a primary's
// /v1/replication/snapshot body and one seeded from that snapshot's XML
// export serve byte-equal /v1/relations?pct=1 under the same ETag: the
// snapshot's recorded position is dropped, so each is a new world at g0.
func TestCardirectdConfigTakesSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary test in -short mode")
	}
	bin := buildBinary(t)
	_, primBase := startDaemon(t, bin, "-greece")
	addRegion(t, primBase, "delos", 310, 180)
	addRegion(t, primBase, "naxos", 330, 150)
	code, _, snapshot := getRaw(t, primBase, "/v1/replication/snapshot")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/replication/snapshot: %d", code)
	}
	img, err := persist.DecodeSnapshot(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	export, err := img.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	binPath, xmlPath := filepath.Join(dir, "snapshot-00000001.bin"), filepath.Join(dir, "world.xml")
	if err := os.WriteFile(binPath, snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(xmlPath, export, 0o644); err != nil {
		t.Fatal(err)
	}
	_, fromBin := startDaemon(t, bin, "-config", binPath)
	_, fromXML := startDaemon(t, bin, "-config", xmlPath)
	codeBin, hBin, bodyBin := getRaw(t, fromBin, "/v1/relations?pct=1")
	codeXML, hXML, bodyXML := getRaw(t, fromXML, "/v1/relations?pct=1")
	if codeBin != http.StatusOK || codeXML != http.StatusOK {
		t.Fatalf("GET /v1/relations?pct=1: %d from the snapshot seed, %d from the XML seed", codeBin, codeXML)
	}
	if !bytes.Equal(bodyBin, bodyXML) {
		t.Fatalf("the snapshot seed and the XML seed serve different relations:\n%.300s\n%.300s", bodyBin, bodyXML)
	}
	if eBin, eXML := hBin.Get("ETag"), hXML.Get("ETag"); eBin != `"g0"` || eXML != eBin {
		t.Fatalf("ETag %s from the snapshot seed, %s from the XML seed; want both \"g0\"", eBin, eXML)
	}
	var served struct {
		Data struct {
			Pairs []json.RawMessage `json:"pairs"`
		} `json:"data"`
	}
	if err := json.Unmarshal(bodyBin, &served); err != nil {
		t.Fatal(err)
	}
	if n := len(img.Regions); n != 13 || len(served.Data.Pairs) != n*(n-1) {
		t.Fatalf("%d regions, %d pairs served; want 13 regions and every ordered pair", n, len(served.Data.Pairs))
	}
}

// TestCardirectdPctDisabled runs the daemon with -pct off: percent routes
// answer 422 pct_disabled while qualitative routes keep working.
func TestCardirectdPctDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary test in -short mode")
	}
	bin := buildBinary(t)
	_, base := startDaemon(t, bin, "-greece", "-pct", "off")

	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, base, "/healthz", &health)

	for _, path := range []string{
		"/v1/relation?primary=attica&reference=peloponnesos&pct=1",
		"/v1/relations?pct=1",
	} {
		status, _, body := getRaw(t, base, path)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("GET %s with -pct off: status %d, want 422: %s", path, status, body)
		}
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "pct_disabled" {
			t.Fatalf("GET %s: error code %q (err %v), want pct_disabled", path, env.Error.Code, err)
		}
	}
	var rel struct {
		Relation string `json:"relation"`
	}
	getJSON(t, base, "/v1/relation?primary=attica&reference=peloponnesos", &rel)
	if rel.Relation == "" {
		t.Fatal("qualitative relation broken with -pct off")
	}
}

// replStatus mirrors the /v1/replication/status payload the tests consume.
type replStatus struct {
	Role       string `json:"role"`
	Generation uint64 `json:"generation"`
	HeadSeq    uint64 `json:"head_seq"`
	Replica    *struct {
		LastAppliedSeq   uint64 `json:"last_applied_seq"`
		Generation       uint64 `json:"generation"`
		BootSeq          uint64 `json:"boot_seq"`
		ResumedFromCache bool   `json:"resumed_from_cache"`
	} `json:"replica"`
}

// addRegion posts one square region to a primary and fails on non-201.
func addRegion(t *testing.T, base, id string, x, y float64) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"id":  id,
		"wkt": fmt.Sprintf("POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))", x, y, x+15, y, x+15, y+15, x, y+15, x, y),
	})
	resp, err := http.Post(base+"/v1/regions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/regions %s: status %d", id, resp.StatusCode)
	}
}

// TestCardirectdReplicaResume is the kill-and-resume replication scenario
// (make smoke): a tailing replica is SIGKILLed mid-stream, restarted over
// the same -replica-data directory, and must resume from its last applied
// sequence (not a fresh snapshot) and converge to the primary's generation
// with byte-identical reads. Stopped, its -replica-data directory is a
// primary's -data directory: a daemon started on it serves the same
// relations.
func TestCardirectdReplicaResume(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary replication test in -short mode")
	}
	bin := buildBinary(t)
	_, primBase := startDaemon(t, bin, "-greece")
	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, primBase, "/healthz", &health)

	cacheDir := t.TempDir()
	repCmd, repBase := startDaemon(t, bin, "-role", "replica", "-follow", primBase, "-replica-data", cacheDir)

	const firstBatch = 20
	for i := 0; i < firstBatch; i++ {
		addRegion(t, primBase, fmt.Sprintf("live%03d", i), 300+float64(i%5)*25, 300+float64(i/5)*25)
	}

	waitApplied := func(base string, minSeq uint64) replStatus {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			var st replStatus
			getJSON(t, base, "/v1/replication/status", &st)
			if st.Replica != nil && st.Replica.LastAppliedSeq >= minSeq {
				return st
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatalf("replica never reached seq %d", minSeq)
		return replStatus{}
	}
	waitApplied(repBase, firstBatch)

	// Writes to the replica bounce with the primary's address.
	resp, err := http.Post(repBase+"/v1/regions", "application/json",
		strings.NewReader(`{"id":"nope","wkt":"POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))"}`))
	if err != nil {
		t.Fatal(err)
	}
	bounced, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("replica write: status %d, want 421: %s", resp.StatusCode, bounced)
	}
	if !strings.Contains(string(bounced), "not_primary") || !strings.Contains(string(bounced), primBase) {
		t.Fatalf("replica write rejection lacks not_primary/primary URL: %s", bounced)
	}

	// Pull the plug on the replica mid-life; the primary keeps moving.
	repCmd.Process.Signal(syscall.SIGKILL)
	repCmd.Wait()
	for i := 0; i < 10; i++ {
		addRegion(t, primBase, fmt.Sprintf("down%03d", i), 600+float64(i)*20, 600)
	}

	// Restart over the same cache: it must resume, not re-snapshot.
	repCmd2, repBase2 := startDaemon(t, bin, "-role", "replica", "-follow", primBase, "-replica-data", cacheDir)
	st := waitApplied(repBase2, firstBatch+10)
	if st.Replica.BootSeq < firstBatch {
		t.Fatalf("boot seq %d: replica re-bootstrapped instead of resuming past %d", st.Replica.BootSeq, firstBatch)
	}
	if !st.Replica.ResumedFromCache {
		t.Fatal("restarted replica did not resume from its cache")
	}

	// Converged: generations equal, relations bodies and ETags identical.
	var primSt replStatus
	getJSON(t, primBase, "/v1/replication/status", &primSt)
	deadline := time.Now().Add(20 * time.Second)
	for {
		getJSON(t, repBase2, "/v1/replication/status", &st)
		if st.Replica.Generation == primSt.Generation && st.Replica.LastAppliedSeq == primSt.HeadSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica at gen %d seq %d, primary at gen %d head %d",
				st.Replica.Generation, st.Replica.LastAppliedSeq, primSt.Generation, primSt.HeadSeq)
		}
		time.Sleep(25 * time.Millisecond)
	}
	pStatus, pHdr, pBody := getRaw(t, primBase, "/v1/relations")
	rStatus, rHdr, rBody := getRaw(t, repBase2, "/v1/relations")
	if pStatus != http.StatusOK || rStatus != http.StatusOK {
		t.Fatalf("relations: primary %d, replica %d", pStatus, rStatus)
	}
	if !bytes.Equal(pBody, rBody) {
		t.Fatal("resumed replica serves different /v1/relations body than the primary")
	}
	if pe, re := pHdr.Get("ETag"), rHdr.Get("ETag"); pe == "" || pe != re {
		t.Fatalf("ETags diverged: primary %q, replica %q", pe, re)
	}

	// Stop the replica and open its directory as a primary's.
	repCmd2.Process.Signal(syscall.SIGTERM)
	if err := repCmd2.Wait(); err != nil {
		t.Fatalf("replica shutdown: %v", err)
	}
	dataCmd, dataBase := startDaemon(t, bin, "-data", cacheDir)
	dStatus, _, dBody := getRaw(t, dataBase, "/v1/relations")
	if dStatus != http.StatusOK || !bytes.Equal(dBody, pBody) {
		t.Fatalf("a daemon on the replica's directory answers %d with %d bytes; the primary served %d", dStatus, len(dBody), len(pBody))
	}
	stop := func(cmd *exec.Cmd) {
		t.Helper()
		cmd.Process.Signal(syscall.SIGTERM)
		if err := cmd.Wait(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}

	// Its exit snapshot keeps the position, as no edit of its own moved the
	// world: a replica resumes from it. Once it has taken an edit of its
	// own, its world is a primary's, which a replica refuses to sweep away.
	stop(dataCmd)
	repCmd3, repBase3 := startDaemon(t, bin, "-role", "replica", "-follow", primBase, "-replica-data", cacheDir)
	if st := waitApplied(repBase3, primSt.HeadSeq); !st.Replica.ResumedFromCache {
		t.Fatal("a replica did not resume from a directory a primary snapshotted unedited")
	}
	stop(repCmd3)
	dataCmd, dataBase = startDaemon(t, bin, "-data", cacheDir)
	addRegion(t, dataBase, "own", 900, 900)
	stop(dataCmd)
	out, err := exec.Command(bin, "-role", "replica", "-follow", primBase, "-replica-data", cacheDir, "-addr", "127.0.0.1:0").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "holds a primary's world") {
		t.Fatalf("a replica on an edited primary's directory: %v\n%s", err, out)
	}
}

// TestCardirectdRouter stands up all three roles and checks the router
// splits traffic: writes land on the primary, reads come from the replica.
func TestCardirectdRouter(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary router test in -short mode")
	}
	bin := buildBinary(t)
	_, primBase := startDaemon(t, bin, "-greece")
	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, primBase, "/healthz", &health)
	_, repBase := startDaemon(t, bin, "-role", "replica", "-follow", primBase, "-replica-data", t.TempDir())
	_, routerBase := startDaemon(t, bin, "-role", "router", "-primary", primBase, "-replicas", repBase)

	var rtSt struct {
		Healthy int `json:"healthy_replicas"`
	}
	deadline := time.Now().Add(20 * time.Second)
	for rtSt.Healthy == 0 {
		if time.Now().After(deadline) {
			t.Fatal("router never saw a healthy replica")
		}
		getJSON(t, routerBase, "/v1/router/status", &rtSt)
		time.Sleep(25 * time.Millisecond)
	}

	addRegion(t, routerBase, "routed", 500, 500)
	deadline = time.Now().Add(20 * time.Second)
	for {
		status, hdr, _ := getRaw(t, routerBase, "/v1/relations")
		if status == http.StatusOK && hdr.Get("Cardirect-Staleness") == "" {
			t.Fatal("router read skipped the replica (no staleness header)")
		}
		var env struct {
			Data struct {
				Relation string `json:"relation"`
			} `json:"data"`
		}
		if status, _, body := getRaw(t, routerBase, "/v1/relation?primary=routed&reference=attica"); status == http.StatusOK {
			if err := json.Unmarshal(body, &env); err == nil && env.Data.Relation != "" {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("write via router never became readable via the replica")
		}
		time.Sleep(25 * time.Millisecond)
	}
}
