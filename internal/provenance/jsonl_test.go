package provenance

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"imtao/internal/assign"
	"imtao/internal/model"
	"imtao/internal/obs"
)

// testLedger builds a small hand-rolled ledger exercising every record type.
func testLedger() *Ledger {
	l := NewLedger()
	l.Start(Meta{Method: "Seq-BDC", Engine: "sharded", Scope: ScopeFull,
		Centers: 2, Workers: 3, Tasks: 4, Seed: 42})
	l.Phase1 = []CenterPhase1{
		{Center: 0, Tasks: 3, Assigned: 2, Rho: 2.0 / 3,
			LeftWorkers: []model.WorkerID{2}, LeftTasks: []model.TaskID{3},
			Routes: []RecordedRoute{{Worker: 0, Tasks: []model.TaskID{0, 1}}}},
		{Center: 1, Tasks: 1, Assigned: 0, Rho: 0,
			Routes: nil},
	}
	l.Scans[0] = []ScanEvent{{Worker: 0, Task: 3, Arrive: 2.5, Expiry: 2.0}}
	g := l.NewGameLog(StageGame, 0)
	g.RecordIter(IterInfo{Iter: 1, Recipient: 1, Accepted: true, Worker: 2,
		Source: 0, RhoBefore: 0, RhoAfter: 1, Phi: 5.0 / 3, Pruned: 1, Slack: 1.5},
		[]model.WorkerID{2},
		[]assign.Result{{Routes: []model.Route{{Worker: 2, Center: 1, Tasks: []model.TaskID{3}}}}},
		false,
		[]model.Route{{Worker: 2, Center: 1, Tasks: []model.TaskID{3}}}, true)
	l.RecordShard(ShardInfo{Shards: 2, ShardOf: []int{0, 1},
		BoundaryWorkers: 1, ExclusiveWorkers: 2, EmptyCut: false,
		Components: 1, ExchangeIters: 3, ExchangeTransfers: 1})
	l.Final = &Final{Assigned: 3, Unfairness: 0.25, Fingerprint: 0xdeadbeefcafef00d,
		Transfers: []model.Transfer{{Src: 0, Dst: 1, Worker: 2}},
		Routes: []FinalRoute{{Worker: 2, Center: 1, Tasks: []model.TaskID{3},
			Arrive: []float64{1.5}, Expiry: []float64{2}, Hours: 1.5}}}
	l.Cert = &Certificate{Scope: ScopeFull, SolutionFP: 0xdeadbeefcafef00d,
		Phi: 5.0 / 3, Eps: rhoEps, Equilibrium: true,
		Centers: []Witness{{Center: 0, TaskCount: 3, Assigned: 2, Rho: 2.0 / 3,
			Slack: 1.5, Candidates: 2, Pruned: 1, BestRho: 2.0 / 3,
			BestWorker: -1, Hash: 0x123456789abcdef0}}}
	return l
}

func TestJSONLRoundTrip(t *testing.T) {
	l := testLedger()
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != l.Meta {
		t.Errorf("meta %+v, want %+v", got.Meta, l.Meta)
	}
	if len(got.Phase1) != 2 || len(got.Phase1[0].Routes) != 1 ||
		got.Phase1[0].Routes[0].Worker != 0 || len(got.Phase1[0].Routes[0].Tasks) != 2 {
		t.Errorf("phase1 mismatch: %+v", got.Phase1)
	}
	if len(got.Scans[0]) != 1 || got.Scans[0][0] != l.Scans[0][0] {
		t.Errorf("scans mismatch: %+v", got.Scans)
	}
	if len(got.Logs) != 1 || got.Logs[0].Stage != StageGame || got.Logs[0].Shard != 0 ||
		len(got.Logs[0].Iters) != 1 {
		t.Fatalf("logs mismatch: %+v", got.Logs)
	}
	gi, wi := got.Logs[0].Iters[0], l.Logs[0].Iters[0]
	if gi != wi {
		t.Errorf("iter %+v, want %+v", gi, wi)
	}
	if got.Shard == nil {
		t.Fatal("shard section lost")
	}
	if got.Shard.Shards != 2 || got.Shard.ExchangeIters != 3 || len(got.Shard.ShardOf) != 2 {
		t.Errorf("shard mismatch: %+v", got.Shard)
	}
	if got.Final.Fingerprint != l.Final.Fingerprint || len(got.Final.Transfers) != 1 ||
		got.Final.Transfers[0] != l.Final.Transfers[0] || len(got.Final.Routes) != 1 ||
		got.Final.Routes[0].Hours != 1.5 {
		t.Errorf("final mismatch: %+v", got.Final)
	}
	if got.Cert == nil || got.Cert.SolutionFP != l.Cert.SolutionFP ||
		len(got.Cert.Centers) != 1 || got.Cert.Centers[0] != l.Cert.Centers[0] {
		t.Errorf("cert mismatch: %+v", got.Cert)
	}
}

// TestReadLedgerRejectsSchemaMismatch: satellite 2 — a reader built against
// this schema refuses both older stamped versions and the historical
// unversioned (v1) stream.
func TestReadLedgerRejectsSchemaMismatch(t *testing.T) {
	for name, line := range map[string]string{
		"older":       `{"seq":1,"t_ms":0.0,"schema_version":1,"event":"prov_meta","method":"Seq-BDC"}`,
		"newer":       fmt.Sprintf(`{"seq":1,"t_ms":0.0,"schema_version":%d,"event":"prov_meta","method":"Seq-BDC"}`, obs.SchemaVersion+1),
		"unversioned": `{"seq":1,"t_ms":0.0,"event":"prov_meta","method":"Seq-BDC"}`,
	} {
		if _, err := ReadLedger(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s stream accepted, want schema rejection", name)
		} else if !strings.Contains(err.Error(), "schema_version") {
			t.Errorf("%s stream: error %q does not mention schema_version", name, err)
		}
	}
}

// TestReadLedgerSkipsForeignEvents: non-provenance events sharing the stream
// (a run trace, runtime samples) are ignored; unknown prov_* types are not.
func TestReadLedgerSkipsForeignEvents(t *testing.T) {
	stream := fmt.Sprintf(`{"seq":1,"t_ms":0.0,"schema_version":%[1]d,"event":"run_start","method":"Seq-BDC"}
{"seq":2,"t_ms":0.1,"schema_version":%[1]d,"event":"prov_meta","method":"Seq-BDC","engine":"game","scope":"full","centers":1,"workers":1,"tasks":1,"seed":9}
{"seq":3,"t_ms":0.2,"schema_version":%[1]d,"event":"game_iter","iter":1}
`, obs.SchemaVersion)
	l, err := ReadLedger(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if l.Meta.Seed != 9 || l.Meta.Centers != 1 {
		t.Errorf("meta not parsed around foreign events: %+v", l.Meta)
	}
	bad := fmt.Sprintf(`{"seq":1,"t_ms":0.0,"schema_version":%d,"event":"prov_wat"}`, obs.SchemaVersion)
	if _, err := ReadLedger(strings.NewReader(bad + "\n")); err == nil {
		t.Error("unknown prov_* record type accepted")
	}
}

// TestReadLedgerDecodesMemoTrials: ledgers written while the engine still
// kept a cross-iteration trial cache carry a memo_hits key on every
// prov_iter record and mark cached trials with mode 0. Such a record must
// still parse, its mode-0 trial must decode as TrialMemo, and the fresh
// trial next to it keeps its own mode.
func TestReadLedgerDecodesMemoTrials(t *testing.T) {
	stream := fmt.Sprintf(`{"seq":1,"t_ms":0.0,"schema_version":%[1]d,"event":"prov_meta","method":"Seq-BDC","engine":"sharded","scope":"full","centers":2,"workers":3,"tasks":4,"seed":42}
{"seq":2,"t_ms":0.1,"schema_version":%[1]d,"event":"prov_log","stage":"exchange","shard":0,"iters":1}
{"seq":3,"t_ms":0.2,"schema_version":%[1]d,"event":"prov_iter","iter":1,"recipient":1,"accepted":false,"w":0,"source":0,"rho_before":0.5,"rho_after":0.5,"phi":1.5,"pruned":0,"slack":-1,"memo_hits":1,"replace":false,"trials":[{"w":0,"n":1,"m":0},{"w":2,"n":1,"m":2}],"routes":[]}
`, obs.SchemaVersion)
	l, err := ReadLedger(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Logs) != 1 || len(l.Logs[0].Iters) != 1 {
		t.Fatalf("want one log with one iteration, got %d logs", len(l.Logs))
	}
	g := l.Logs[0]
	it := &g.Iters[0]
	if it.Recipient != 1 || it.Accepted || it.RhoBefore != 0.5 {
		t.Errorf("iteration misparsed: %+v", *it)
	}
	want := []TrialRec{
		{Worker: 0, Assigned: 1, Mode: TrialMemo},
		{Worker: 2, Assigned: 1, Mode: TrialResumed},
	}
	if got := g.Trials(it); !reflect.DeepEqual(got, want) {
		t.Errorf("trials %+v, want %+v", got, want)
	}
}
