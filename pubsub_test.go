package pubsub_test

import (
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	pubsub "repro"
)

func TestIndexEndToEnd(t *testing.T) {
	// The Gryphon motivating example: name=IBM (linearised to (10,11]),
	// 75 < price <= 80, volume >= 1000.
	subs := []pubsub.Subscription{
		{Rect: pubsub.Rect{{Lo: 10, Hi: 11}, {Lo: 75, Hi: 80}, pubsub.AtLeast(999)}, SubscriberID: 1},
		{Rect: pubsub.Rect{{Lo: 10, Hi: 11}, pubsub.FullInterval(), pubsub.FullInterval()}, SubscriberID: 2},
		{Rect: pubsub.FullRect(3), SubscriberID: 3},
	}
	ix, err := pubsub.NewIndex(subs, pubsub.IndexOptions{Algorithm: pubsub.STree})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}

	tests := []struct {
		name  string
		event pubsub.Point
		want  int
	}{
		{name: "all predicates satisfied", event: pubsub.Point{10.5, 78, 2000}, want: 3},
		{name: "price outside range", event: pubsub.Point{10.5, 90, 2000}, want: 2},
		{name: "different stock", event: pubsub.Point{5.5, 78, 2000}, want: 1},
		{name: "volume too small", event: pubsub.Point{10.5, 78, 500}, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ix.Count(tt.event); got != tt.want {
				t.Errorf("Count = %d, want %d (matched %v)", got, tt.want, ix.Match(tt.event))
			}
			if got := len(ix.MatchUnique(tt.event)); got != tt.want {
				t.Errorf("MatchUnique = %d, want %d", got, tt.want)
			}
		})
	}

	stopped := 0
	ix.MatchEach(pubsub.Point{10.5, 78, 2000}, func(int) bool {
		stopped++
		return false
	})
	if stopped != 1 {
		t.Errorf("MatchEach early stop delivered %d", stopped)
	}
}

func TestIndexAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var subs []pubsub.Subscription
	for i := 0; i < 300; i++ {
		lo1, lo2 := rng.Float64()*90, rng.Float64()*90
		subs = append(subs, pubsub.Subscription{
			Rect:         pubsub.NewRect(lo1, lo1+8, lo2, lo2+8),
			SubscriberID: i,
		})
	}
	mk := func(alg pubsub.IndexAlgorithm) *pubsub.Index {
		ix, err := pubsub.NewIndex(subs, pubsub.IndexOptions{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	st, hr, bf := mk(pubsub.STree), mk(pubsub.HilbertRTree), mk(pubsub.BruteForce)
	for i := 0; i < 200; i++ {
		p := pubsub.Point{rng.Float64() * 100, rng.Float64() * 100}
		a, b, c := st.Count(p), hr.Count(p), bf.Count(p)
		if a != c || b != c {
			t.Fatalf("counts disagree at %v: stree=%d hilbert=%d brute=%d", p, a, b, c)
		}
	}
}

func TestIndexPointQueryStats(t *testing.T) {
	// Four well-separated unit squares with branch factor 2 produce an
	// exactly known S-tree: the skew bound forces the binarization split
	// at q=2, giving root → {leaf{0,1}, leaf{2,3}}.
	subs := []pubsub.Subscription{
		{Rect: pubsub.NewRect(0, 1, 0, 1), SubscriberID: 0},
		{Rect: pubsub.NewRect(2, 3, 0, 1), SubscriberID: 1},
		{Rect: pubsub.NewRect(100, 101, 100, 101), SubscriberID: 2},
		{Rect: pubsub.NewRect(102, 103, 100, 101), SubscriberID: 3},
	}
	ix, err := pubsub.NewIndex(subs, pubsub.IndexOptions{Algorithm: pubsub.STree, BranchFactor: 2})
	if err != nil {
		t.Fatal(err)
	}

	// A point inside subscription 0: the root and the left leaf are
	// entered, the right leaf is pruned by its MBR.
	ids, stats := ix.PointQueryStats(pubsub.Point{0.5, 0.5})
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("ids = %v, want [0]", ids)
	}
	want := pubsub.QueryStats{NodesVisited: 2, LeavesVisited: 1, EntriesTested: 2, Matched: 1}
	if stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}

	// A point inside the root MBR but both leaf MBRs prune: only the
	// root is visited and no entry is tested.
	ids, stats = ix.PointQueryStats(pubsub.Point{50, 50})
	if len(ids) != 0 {
		t.Fatalf("ids = %v, want none", ids)
	}
	want = pubsub.QueryStats{NodesVisited: 1}
	if stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}

	// The predicate-counting matcher has no instrumented traversal; the
	// facade falls back to reporting the match count only.
	pc, err := pubsub.NewIndex(subs, pubsub.IndexOptions{Algorithm: pubsub.PredCount})
	if err != nil {
		t.Fatal(err)
	}
	ids, stats = pc.PointQueryStats(pubsub.Point{0.5, 0.5})
	if len(ids) != 1 || stats.Matched != 1 || stats.NodesVisited != 0 {
		t.Fatalf("pred-count stats = %v %+v", ids, stats)
	}
}

func TestBrokerFacade(t *testing.T) {
	b := pubsub.NewBroker(pubsub.BrokerOptions{})
	defer b.Close()
	sub, err := b.Subscribe(pubsub.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(pubsub.Point{5}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.Events():
		if string(ev.Payload) != "x" {
			t.Errorf("payload = %q", ev.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery")
	}
	if st := b.Stats(); st.Subscriptions != 1 || st.Published != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNetworkServerFacade(t *testing.T) {
	b := pubsub.NewBroker(pubsub.BrokerOptions{})
	srv := pubsub.NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() { srv.Close(); b.Close() }()

	cli, err := pubsub.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Subscribe(pubsub.NewRect(0, 1)); err != nil {
		t.Fatal(err)
	}
	n, err := cli.Publish(pubsub.Point{0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("delivered = %d", n)
	}
}

func TestSimulationFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	g, err := pubsub.GenerateNetwork(pubsub.DefaultNetworkConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	space := pubsub.StockSpace()
	subCfg := pubsub.DefaultSubscriptionConfig()
	subCfg.Count = 300
	subs, err := pubsub.GenerateSubscriptions(g, space, subCfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	model, err := pubsub.StockPublications(9)
	if err != nil {
		t.Fatal(err)
	}

	clu, err := pubsub.BuildClustering(subs, model, space, pubsub.ClusterConfig{
		Groups: 7, Algorithm: pubsub.ForgyKMeans,
	})
	if err != nil {
		t.Fatal(err)
	}
	if clu.NumGroups() == 0 || clu.NumGroups() > 7 {
		t.Fatalf("groups = %d", clu.NumGroups())
	}

	eng, err := pubsub.NewEngine(g, subs, model, pubsub.EngineConfig{
		Space:     space,
		Cluster:   pubsub.ClusterConfig{Groups: 7, Algorithm: pubsub.ForgyKMeans},
		Threshold: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot, err := eng.Run(rng, 500)
	if err != nil {
		t.Fatal(err)
	}
	if tot.Messages != 500 {
		t.Errorf("messages = %d", tot.Messages)
	}
	if tot.Unicasts == 0 && tot.Multicasts == 0 {
		t.Error("no deliveries at all")
	}
}

func TestIndexMatchRegion(t *testing.T) {
	subs := []pubsub.Subscription{
		{Rect: pubsub.NewRect(0, 10, 0, 10), SubscriberID: 1},
		{Rect: pubsub.NewRect(20, 30, 20, 30), SubscriberID: 2},
		{Rect: pubsub.NewRect(5, 25, 5, 25), SubscriberID: 3},
	}
	ix, err := pubsub.NewIndex(subs, pubsub.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := ix.MatchRegion(pubsub.NewRect(8, 12, 8, 12))
	if len(got) != 2 { // subscribers 1 and 3
		t.Errorf("MatchRegion = %v, want 2 hits", got)
	}
	if got := ix.MatchRegion(pubsub.NewRect(100, 110, 100, 110)); len(got) != 0 {
		t.Errorf("far region matched %v", got)
	}
	// Half-open: a region abutting a subscription does not match it.
	if got := ix.MatchRegion(pubsub.NewRect(10, 12, 0, 10)); len(got) != 1 { // only 3
		t.Errorf("abutting region matched %v, want just subscriber 3", got)
	}
}

func TestMetricsFacade(t *testing.T) {
	reg := pubsub.NewMetricsRegistry()
	var logs strings.Builder
	logger := slog.New(slog.NewJSONHandler(&logs, nil))
	b := pubsub.NewBroker(pubsub.BrokerOptions{
		Metrics: reg,
		Tracer:  pubsub.NewPublicationTracer(logger, 1),
	})
	defer b.Close()
	sub, err := b.Subscribe(pubsub.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if _, err := b.Publish(pubsub.Point{5}, []byte("x")); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(pubsub.MetricsHandler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "pubsub_broker_published_total 1") {
		t.Errorf("prometheus view missing publish counter:\n%.400s", body)
	}

	jresp, err := http.Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	err = json.NewDecoder(jresp.Body).Decode(&decoded)
	jresp.Body.Close()
	if err != nil {
		t.Fatalf("JSON view: %v", err)
	}
	if _, ok := decoded["pubsub_broker_published_total"]; !ok {
		t.Error("JSON view missing publish counter")
	}

	if !strings.Contains(logs.String(), `"msg":"publish"`) {
		t.Errorf("tracer emitted no publish span: %q", logs.String())
	}
	if pubsub.NewPublicationTracer(nil, 1) != nil || pubsub.NewPublicationTracer(logger, 0) != nil {
		t.Error("disabled tracer constructors must return nil")
	}
}
