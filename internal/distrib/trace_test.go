package distrib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/telemetry"
)

// spanIndex groups a trace's spans for assertions: coordinator spans by
// name, worker spans by name.
func spanIndex(spans []telemetry.SpanData) (coord, worker map[string][]telemetry.SpanData) {
	coord = map[string][]telemetry.SpanData{}
	worker = map[string][]telemetry.SpanData{}
	for _, sp := range spans {
		if sp.Proc == "worker" {
			worker[sp.Name] = append(worker[sp.Name], sp)
		} else {
			coord[sp.Name] = append(coord[sp.Name], sp)
		}
	}
	return coord, worker
}

// TestCoordinatorTracePropagation is the cross-process tracing
// contract: with a Tracer set, a run records a root span, a shard span
// per attempt, and — stitched back off each Done frame — the worker's
// prepare/train/votes spans, every one of which parents under the
// coordinator's shard span whose ID crossed the wire in the Job frame.
func TestCoordinatorTracePropagation(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	tr := telemetry.NewTracer("coordinator")
	coord := &Coordinator{Transport: Loopback{}, Opts: Options{Train: fx.train, Workers: 2, Tracer: tr}}
	res, _, err := coord.Run(fx.pair, fx.plan, fx.oracle)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAlignment(t, res, fx.ref, fx.plan)

	spans := tr.Spans()
	coordSpans, workerSpans := spanIndex(spans)
	if len(coordSpans["round 0"]) != 1 {
		t.Fatalf("want exactly one round span, got %d", len(coordSpans["round 0"]))
	}
	runID := coordSpans["round 0"][0].ID

	// One shard span per part, parented under the round span.
	shardSpanID := map[uint64]string{}
	for i := range fx.plan.Parts {
		name := fmt.Sprintf("shard %d", fx.plan.Parts[i].Index)
		got := coordSpans[name]
		if len(got) == 0 {
			t.Fatalf("no coordinator span %q", name)
		}
		for _, sp := range got {
			if sp.Parent != runID {
				t.Errorf("%s span parent %#x, want round span %#x", name, sp.Parent, runID)
			}
			shardSpanID[sp.ID] = name
		}
	}

	// Every shard must have a worker-side train span whose parent is one
	// of that shard's coordinator attempt spans.
	if len(workerSpans["train"]) < len(fx.plan.Parts) {
		t.Fatalf("want ≥%d worker train spans, got %d", len(fx.plan.Parts), len(workerSpans["train"]))
	}
	seen := map[string]bool{}
	for _, name := range []string{"prepare", "train", "votes"} {
		for _, sp := range workerSpans[name] {
			parent, ok := shardSpanID[sp.Parent]
			if !ok {
				t.Errorf("worker %s span parent %#x is not a coordinator shard span", name, sp.Parent)
				continue
			}
			if sp.End < sp.Start {
				t.Errorf("worker %s span ends before it starts", name)
			}
			seen[parent] = true
		}
	}
	for i := range fx.plan.Parts {
		name := fmt.Sprintf("shard %d", fx.plan.Parts[i].Index)
		if !seen[name] {
			t.Errorf("no worker span parented under %s", name)
		}
	}
	if len(coordSpans["reconcile"]) != 1 {
		t.Errorf("want one reconcile span, got %d", len(coordSpans["reconcile"]))
	}

	// The Chrome dump must be valid trace-event JSON naming both process
	// rows.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("chrome dump is not valid JSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"worker"`) || !strings.Contains(buf.String(), `"coordinator"`) {
		t.Error("chrome dump missing process name metadata")
	}
}

// TestSessionTracePropagation checks rounds trace too, including warm
// re-runs: round spans are roots, and cache-hit rounds still return
// worker train spans stitched under the round's shard spans.
func TestSessionTracePropagation(t *testing.T) {
	fx := newDistFixture(t, 2, 8)
	tr := telemetry.NewTracer("coordinator")
	plan := fx.freshPlan(t, 8)
	sess, err := NewSession(Loopback{}, fx.pair, Options{Train: fx.train, Workers: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for r := 0; r < 2; r++ {
		res, m, err := sess.Run(plan, fx.oracle)
		if err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		if r == 1 && m.CacheHits == 0 {
			t.Skip("no warm cache hit on round 2; warm path not exercised here")
		}
		if r == 0 {
			plan.AppendLabels(res.QueriedLabels())
		}
	}
	coordSpans, workerSpans := spanIndex(tr.Spans())
	if len(coordSpans["round 0"]) != 1 || len(coordSpans["round 1"]) != 1 {
		t.Fatalf("want one span per round, got %d and %d", len(coordSpans["round 0"]), len(coordSpans["round 1"]))
	}
	// Two rounds × every shard trained on a worker.
	if want := 2 * len(plan.Parts); len(workerSpans["train"]) < want {
		t.Errorf("want ≥%d worker train spans across rounds, got %d", want, len(workerSpans["train"]))
	}
	shardIDs := map[uint64]bool{}
	for name, spans := range coordSpans {
		if strings.HasPrefix(name, "shard ") {
			for _, sp := range spans {
				shardIDs[sp.ID] = true
			}
		}
	}
	for _, sp := range workerSpans["train"] {
		if !shardIDs[sp.Parent] {
			t.Errorf("worker train span parent %#x is not a session shard span", sp.Parent)
		}
	}
}

// TestTracingDoesNotPerturbResults is the telemetry on/off property:
// the same plan run with tracing enabled and disabled must produce
// bit-identical alignments — spans observe the pipeline, they must
// never steer it.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	fx := newDistFixture(t, 3, 12)
	off := &Coordinator{Transport: Loopback{}, Opts: Options{Train: fx.train, Workers: 2}}
	resOff, _, err := off.Run(fx.pair, fx.plan, fx.oracle)
	if err != nil {
		t.Fatal(err)
	}
	on := &Coordinator{Transport: Loopback{}, Opts: Options{Train: fx.train, Workers: 2, Tracer: telemetry.NewTracer("coordinator")}}
	resOn, _, err := on.Run(fx.pair, fx.plan, fx.oracle)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAlignment(t, resOff, fx.ref, fx.plan)
	assertSameAlignment(t, resOn, resOff, fx.plan)
}

// TestSeedBuildTraced: the session's seed export is one "seed export"
// span under the span that built it — the connect span of the connection
// that got there first when the session connects ahead, the round span
// when Run builds it. Its encode is one "seed encode" span under the
// connect span of the connection whose worker missed first, which
// shipped the body. Every connect that shipped carries ship_ms (the
// offer to the body's last byte written) no later than its handshake_ms.
func TestSeedBuildTraced(t *testing.T) {
	exe, err := os.Executable()
	if err != nil || testing.Short() {
		t.Skip("needs the test binary as a worker process")
	}
	fx := newDistFixture(t, 2, 8)
	for _, ahead := range []bool{true, false} {
		tr := telemetry.NewTracer("coordinator")
		exec := &Exec{Cmd: exe, Env: append(os.Environ(), workerEnv+"=1"), Stderr: os.Stderr}
		sess, err := NewSession(exec, fx.pair, Options{Train: fx.train, Workers: 2, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if ahead {
			// Let the connects, not the round, reach the build first.
			sess.ConnectAhead(fx.k)
			for _, slot := range sess.slots {
				slot.await()
			}
		}
		_, _, err = sess.Run(fx.freshPlan(t, 8), fx.oracle)
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		coord, _ := spanIndex(tr.Spans())
		builder := coord["round 0"][0]
		if ahead {
			builder = telemetry.SpanData{}
			for _, c := range coord["connect"] {
				if c.ID == coord["seed export"][0].Parent {
					builder = c
				}
			}
		}
		if got := coord["seed export"]; len(got) != 1 || got[0].Parent == 0 || got[0].Parent != builder.ID || got[0].Track != builder.Track {
			t.Fatalf("ahead %v: %d seed export spans, want one under the %q span %#x on its track", ahead, len(got), builder.Name, builder.ID)
		}
		encodes := coord["seed encode"]
		if len(encodes) != 1 {
			t.Fatalf("ahead %v: %d seed encode spans, want 1", ahead, len(encodes))
		}
		ships, encoder := 0, false
		for _, c := range coord["connect"] {
			arg := map[string]string{}
			for _, l := range c.Args {
				arg[l.Key] = l.Value
			}
			if arg["seed"] != "ship" {
				continue
			}
			ships++
			encoder = encoder || encodes[0].Parent == c.ID && encodes[0].Track == c.Track
			ship, err1 := strconv.ParseFloat(arg["ship_ms"], 64)
			hs, err2 := strconv.ParseFloat(arg["handshake_ms"], 64)
			if err1 != nil || err2 != nil || ship > hs {
				t.Errorf("ahead %v: connect that shipped has ship_ms %q, handshake_ms %q", ahead, arg["ship_ms"], arg["handshake_ms"])
			}
		}
		if ships == 0 {
			t.Errorf("ahead %v: no connect shipped the seed", ahead)
		}
		if !encoder {
			t.Errorf("ahead %v: the seed encode span is not under a connect that shipped, on its track", ahead)
		}
	}
}

// TestLoopbackSessionEncodesNoSeed: every offer of a session whose
// workers share its process hits the counter the export pre-installed,
// so the session never encodes the seed's body: after Run it holds none,
// and its trace has a "seed export" span but no "seed encode".
func TestLoopbackSessionEncodesNoSeed(t *testing.T) {
	fx := newDistFixture(t, 2, 8)
	tr := telemetry.NewTracer("coordinator")
	sess, err := NewSession(Loopback{}, fx.pair, Options{Train: fx.train, Workers: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, m, err := sess.Run(fx.freshPlan(t, 8), fx.oracle)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || m.SeedShips != 0 {
		t.Fatalf("loopback round: result %v, %d seed ships", res, m.SeedShips)
	}
	if sess.seedBody != nil {
		t.Errorf("the session holds a %d-byte seed body no connection shipped", len(sess.seedBody))
	}
	spans, _ := spanIndex(tr.Spans())
	if len(spans["seed export"]) != 1 || len(spans["seed encode"]) != 0 {
		t.Errorf("%d seed export and %d seed encode spans, want 1 and 0", len(spans["seed export"]), len(spans["seed encode"]))
	}
}
