package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pq/internal/wire"
	"pq/pqclient"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `bench -spec`; regenerate it")
	}
	var f benchmarkFile
	if err := json.Unmarshal(onDisk, &f); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range f.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	var setup bool
	for _, m := range f.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range f.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound != nil {
			t.Errorf("%s: unit %q, bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(onDisk) > 64<<10 {
		t.Errorf("run_seconds %d, %d bytes", f.RunSeconds, len(onDisk))
	}
}

// smokeRun runs the whole command in-process at about 1/50 scale and
// returns the parsed result line.
func smokeRun(t *testing.T, workload string, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.24", "--trace", trace, "-tmp", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace %s: exit %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct %v, %d failed of %d\n%s", workload, res.Correct, res.Failed, res.Attempted, stdout.String())
	}
	return res
}

func checkMetrics(t *testing.T, workload string, res result, specs []metricSpec, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(res.Metrics), len(specs))
	}
	for _, m := range specs {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s in %q, want %q", workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0 || (positive && got.Value == 0):
			t.Errorf("%s: %s = %v", workload, m.Name, got.Value)
		}
	}
}

func TestSmokeEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloadSpecs {
		checkMetrics(t, w.Name, smokeRun(t, w.Name, "0"), endToEndSpecs, true)
	}
}

func TestSmokeTracedPassReportsEveryPerLayerMetric(t *testing.T) {
	// One wall-clock workload, which takes its simulator metrics from the
	// layer suite, and sim_fig7, which supplies them itself.
	for _, w := range []string{"cluster_2node", "sim_fig7"} {
		checkMetrics(t, w, smokeRun(t, w, "1"), perLayerSpecs, false)
	}
}

func TestUnknownWorkloadAndBadFlagsFail(t *testing.T) {
	var out bytes.Buffer
	if run([]string{"--workload", "nope"}, &out, &out) == 0 || run([]string{"--seconds", "0"}, &out, &out) == 0 {
		t.Error("bad arguments accepted")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Error("a result line was printed for a run that could not start")
	}
}

func TestGoldenRoundRepeatsExactly(t *testing.T) {
	a, _, opsA, err := goldenRound(1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, opsB, err := goldenRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || opsA != opsB {
		t.Errorf("two golden rounds differ:\n%v\n%v", a, b)
	}
	var audit auditResult
	if checked, err := checkGolden(a, 1, &audit); err != nil || !checked || audit.failed != 0 {
		t.Errorf("golden.json: checked %v, err %v, problems %v", checked, err, audit.problems)
	}
	a["FunnelTree.events"]++
	if checkGolden(a, 1, &audit); audit.failed == 0 {
		t.Error("a changed simulated statistic passed the golden check")
	}
	if checked, _ := checkGolden(a, 12345, &audit); checked {
		t.Error("a round size without goldens claims to have been checked")
	}
	if simOps(defaultSeconds) != simOpsPerProc {
		t.Errorf("the commissioned run length simulates %d ops/proc", simOps(defaultSeconds))
	}
}

func TestStubEchoesIDsAndCountsInsertItems(t *testing.T) {
	stub, err := startStub()
	if err != nil {
		t.Fatal(err)
	}
	defer stub.stop()
	rc, err := dialRaw(stub.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.close()

	value := putValue(make([]byte, valueLen), makeID(1, 1, 1))
	var b rawBatch
	b.addInsert(value)
	b.addDeleteMin()
	b.addInsertBatch([]wire.Item{{Pri: 1, Value: value}, {Pri: 2, Value: value}, {Pri: 3, Value: value}})
	b.addDeleteMinBatch(4)
	for i := 0; i < 3; i++ { // ids advance with every exchange and must be echoed in order
		if err := rc.exchange(&b, func() int { return 5 }); err != nil {
			t.Fatal(err)
		}
	}
	if rc.nextID != 13 {
		t.Errorf("next id %d after 12 frames", rc.nextID)
	}
	if f, n := stub.insertFrames.Load(), stub.insertItems.Load(); f != 6 || n != 12 {
		t.Errorf("stub counted %d insert frames carrying %d items, want 6 and 12", f, n)
	}

	// The driver validates response types: a frame the stub answers with
	// INSERT_OK does not pass for a DELETE_MIN.
	var wrong rawBatch
	wrong.addInsert(value)
	wrong.kinds[0] = wire.TDeleteMin
	if err := rc.exchange(&wrong, nil); err == nil || !strings.Contains(err.Error(), "answered with") {
		t.Errorf("mistyped response accepted: %v", err)
	}
	for _, c := range []struct {
		req, resp wire.Type
		ok        bool
	}{
		{wire.TInsert, wire.TInsertOK, true}, {wire.TInsert, wire.TRetryAfter, false}, {wire.TInsert, wire.TError, false},
		{wire.TDeleteMin, wire.TItem, true}, {wire.TDeleteMin, wire.TEmpty, true}, {wire.TDeleteMin, wire.TItems, false},
		{wire.TDeleteMinBatch, wire.TItems, true}, {wire.TInsertBatch, wire.TInsertOK, true}, {wire.TStats, wire.TStatsReply, false},
	} {
		if responseOK(c.req, c.resp) != c.ok {
			t.Errorf("responseOK(%v, %v) != %v", c.req, c.resp, c.ok)
		}
	}

	// pqclient works against the stub, and gets a well-formed item back.
	c, err := pqclient.Dial(pqclient.Config{Addr: stub.addr(), Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := &clientCaller{c: c}
	if err := cl.insert(1, makeID(1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := cl.deleteMin(); err != nil || !ok {
		t.Fatalf("delete-min through the stub: ok %v err %v", ok, err)
	}
	if items, err := c.DeleteMinBatch(context.Background(), queueName, 8); err != nil || len(items) != 0 {
		t.Errorf("stub batch delete: %d items, err %v", len(items), err)
	}
}

func TestRawDriverAgainstARealNode(t *testing.T) {
	n, rc, err := rawNode()
	if err != nil {
		t.Fatal(err)
	}
	defer n.stop()
	defer rc.close()
	ids := prefillIDs(5, 300)
	if err := rawPrefill(rc, ids, valueLen); err != nil {
		t.Fatal(err)
	}
	c := newRawCaller(rc)
	if err := c.insert(0, makeID(1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	id, pri, ok, err := c.deleteMin()
	if err != nil || !ok || pri != 0 || idPri(id) != 0 {
		t.Fatalf("delete-min: id %x pri %d ok %v err %v", id, pri, ok, err)
	}
	if st := n.stats(); st.Inserts != 301 || st.Deletes != 1 {
		t.Errorf("node counted %d inserts, %d deletes", st.Inserts, st.Deletes)
	}
}

func TestMultisetAuditDetectsLossAndDuplication(t *testing.T) {
	var acked, delivered multiset
	for id := uint64(1); id <= 1000; id++ {
		acked.add(id)
	}
	for id := uint64(1000); id >= 1; id-- { // order does not matter
		delivered.add(id)
	}
	var ok auditResult
	ok.exactlyOnce(acked, delivered)
	if ok.failed != 0 {
		t.Errorf("equal bags failed the audit: %v", ok.problems)
	}
	lost := delivered
	var a auditResult
	a.exactlyOnce(func() multiset { m := acked; m.add(1001); return m }(), lost)
	if a.failed != 1 {
		t.Errorf("one lost item counted as %d", a.failed)
	}
	dup := delivered
	dup.add(7)
	dup.add(7)
	var b auditResult
	b.exactlyOnce(acked, dup)
	if b.failed != 2 {
		t.Errorf("two duplicates counted as %d", b.failed)
	}
	var swapped multiset // same count, one item replaced
	for id := uint64(2); id <= 1001; id++ {
		swapped.add(id)
	}
	var c auditResult
	c.exactlyOnce(acked, swapped)
	if c.failed == 0 {
		t.Error("a replaced item passed the audit")
	}
}

// wrongOrder hands items back first-in-first-out, which no priority queue
// may do.
type wrongOrder struct{ held []uint64 }

func (c *wrongOrder) insert(pri int, id uint64) error { c.held = append(c.held, id); return nil }
func (c *wrongOrder) deleteMin() (uint64, int, bool, error) {
	if len(c.held) == 0 {
		return 0, 0, false, nil
	}
	id := c.held[0]
	c.held = c.held[1:]
	return id, idPri(id), true, nil
}

func TestOrderProbe(t *testing.T) {
	e, err := newNativeEnv()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := orderProbe(e.caller(), 9); err != nil || len(v) != 0 {
		t.Errorf("FunnelTree failed the order probe: %v %v", v, err)
	}
	if v, _ := orderProbe(&wrongOrder{}, 9); len(v) == 0 {
		t.Error("a FIFO passed the order probe")
	}
}

func TestCompare(t *testing.T) {
	set := func(scale float64) *resultSet {
		s := &resultSet{Workloads: map[string]*workloadResult{}}
		for _, w := range workloadSpecs {
			wr := &workloadResult{Seeds: []uint64{1, 2, 3}, Attempted: []int64{9, 9, 9}, Failed: []int64{0, 0, 0},
				EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{"sim.events": 1000}}
			for _, m := range endToEndSpecs {
				wr.EndToEnd[m.Name] = []float64{100 * scale, 101 * scale, 99 * scale}
			}
			s.Workloads[w.Name] = wr
		}
		return s
	}
	write := func(name string, s *resultSet) string {
		path := filepath.Join(t.TempDir(), name)
		b, _ := json.Marshal(s)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", set(1))
	var out bytes.Buffer
	if ok, err := compareFiles(&out, base, write("b.json", set(1.02))); err != nil || !ok {
		t.Errorf("a 2%% difference is within every bound: ok %v err %v\n%s", ok, err, out.String())
	}
	// 30 % more is past the bound for every lower-is-better metric; for
	// ops_per_s it is a gain, which never fails.
	out.Reset()
	if ok, _ := compareFiles(&out, base, write("c.json", set(1.3))); ok || !strings.Contains(out.String(), "PAST THE BOUND") {
		t.Errorf("a 30%% regression passed:\n%s", out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "ops_per_s") && strings.Contains(line, "PAST") {
			t.Errorf("a throughput gain was flagged: %s", line)
		}
	}
	exact := set(1)
	exact.Workloads["sim_fig7"].PerLayer["sim.events"] = 1001
	if ok, _ := compareFiles(&out, base, write("d.json", exact)); ok {
		t.Error("a changed simulated count passed")
	}
	failed := set(1)
	failed.Workloads["native_mixed"].Failed[1] = 3
	if ok, _ := compareFiles(&out, base, write("e.json", failed)); ok {
		t.Error("a set with failed ops passed")
	}
	if worseBy(100, 90, "higher") != 0.1 || worseBy(100, 110, "lower") != 0.1 || worseBy(100, 110, "higher") >= 0 {
		t.Error("worseBy")
	}
}

func TestPromQuantile(t *testing.T) {
	samples := map[string]float64{
		`h_bucket{le="1"}`: 10, `h_bucket{le="2"}`: 40, `h_bucket{le="4"}`: 90, `h_bucket{le="+Inf"}`: 100, "h_count": 100,
	}
	if q := promQuantile(samples, "h", 0.5); q != 4 {
		t.Errorf("p50 %v", q)
	}
	if q := promQuantile(samples, "h", 0.25); q != 2 {
		t.Errorf("p25 %v", q)
	}
}
