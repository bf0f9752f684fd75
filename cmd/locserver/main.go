// Command locserver runs the location service as a real end-to-end
// ingest server: it accepts binary update frames on POST /updates and
// serves position/nearest/range queries, health and stats over HTTP. A
// simulated fleet of vehicles can pre-populate the store.
//
// Usage:
//
//	locserver -addr 127.0.0.1:8080 -fleet 10
//	locserver -fleet 200 -shards 32 -workers 8
//	locserver -fleet 0 -ingest-auto          # empty store, sources POST updates
//	curl 'http://127.0.0.1:8080/nearest?x=0&y=0&k=3&t=120'
//	curl 'http://127.0.0.1:8080/stats'
//
// The query parameter t is simulation time in seconds; the simulated
// fleet drives a pre-computed hour of movement, so any t in [0, 3600]
// returns meaningful positions.
//
// -shards selects the shard count of the location store (object replicas
// are distributed over independently locked shards, so concurrent
// queries and updates scale with the core count); -workers selects how
// many goroutines generate vehicle movement and step the protocol
// sources, feeding the store through its batched ingestion path.
//
// -ingest mounts the POST /updates endpoint (internal/wire frames,
// Content-Type application/x-mapdr-frame); -ingest-auto additionally
// registers unknown object ids on first contact with a map-based
// predictor over the server's road network, so external sources can
// stream updates without a registration step.
//
// # Cluster modes
//
// A set of locservers scales out as a partition-aware cluster: N node
// servers each own a consistent-hash partition of the object ids, and a
// coordinator routes ingest and scatter-gathers queries across them
// over the binary wire protocols.
//
//	locserver -cluster node -addr :8081 -fleet 0   # partition servers
//	locserver -cluster node -addr :8082 -fleet 0
//	locserver -cluster coordinator -addr :8080 -replicas 2 \
//	    -peers n1=http://127.0.0.1:8081,n2=http://127.0.0.1:8082
//	curl 'http://127.0.0.1:8080/nearest?x=0&y=0&k=3&t=120'  # merged across nodes
//	curl 'http://127.0.0.1:8080/cluster'                    # per-node, breaker and hint stats
//
// -replicas R places every key range on R distinct nodes: ingest fans
// out to all owners (replicas are idempotent per Seq), queries merge
// the owners' answers on the freshest sequence number, and a node that
// stops answering is circuit-broken — queries degrade to the surviving
// replicas and its updates buffer as hints that drain on recovery.
//
// A node serves the regular API plus GET /member, the member stream the
// coordinator speaks: one long-lived connection per coordinator,
// upgraded from HTTP/1.1 (Upgrade: mapdr-member/1) on the node's own
// address, multiplexing binary query and update frames by request id.
// A node always auto-registers unknown ids with a map predictor over
// its road network (all nodes and sources must be configured with the
// same -seed so they share the prediction function). The coordinator
// serves the same query API as a single server — clients cannot tell
// the difference — plus GET /cluster for per-node routing and store
// stats. Only that public edge and the coordinators' peer gossip
// (POST /peer) remain plain HTTP requests.
//
// # Multi-coordinator fan-in
//
// Several coordinators can front the same nodes, replicating
// membership through a shared record log instead of electing a
// primary (see internal/cluster/fanin.go):
//
//	locserver -cluster coordinator -addr :8080 -replicas 2 \
//	    -peers n1=http://127.0.0.1:8081,n2=http://127.0.0.1:8082 \
//	    -coordinator-id co-a -peers-coordinators co-b=http://127.0.0.1:8090
//	locserver -cluster coordinator -addr :8090 -replicas 2 \
//	    -peers n1=http://127.0.0.1:8081,n2=http://127.0.0.1:8082 \
//	    -coordinator-id co-b -peers-coordinators co-a=http://127.0.0.1:8080
//
// Both fronts accept ingest and queries concurrently; membership
// changes and the self-healing loops are fenced behind a replicated
// lease so exactly one coordinator drives them at a time, and GET
// /cluster merges stats across the peers.
//
// # Observability
//
// Every role serves GET /metrics (Prometheus text exposition). A
// coordinator's scrape merges its members' metrics fetched over the
// member stream, so node latency histograms add bucket-wise into
// cluster-wide distributions. -trace-every N samples every N-th
// coordinator query for per-hop tracing (GET /trace), and -pprof
// serves net/http/pprof on a separate address:
//
//	locserver -cluster coordinator ... -trace-every 100 -pprof 127.0.0.1:6060
//	curl 'http://127.0.0.1:8080/metrics'
//	curl 'http://127.0.0.1:8080/trace?limit=10'
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"mapdr/internal/cluster"
	"mapdr/internal/core"
	"mapdr/internal/locserv"
	"mapdr/internal/mapgen"
	"mapdr/internal/roadmap"
	"mapdr/internal/sim"
	"mapdr/internal/tracegen"
	"mapdr/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		fleet      = flag.Int("fleet", 10, "number of simulated vehicles (0: start empty)")
		seed       = flag.Int64("seed", 1, "simulation seed")
		shards     = flag.Int("shards", locserv.DefaultShards, "location-store shard count")
		workers    = flag.Int("workers", 0, "simulation worker goroutines (0 = all CPUs)")
		ingest     = flag.Bool("ingest", true, "serve the POST /updates binary ingest endpoint")
		ingestAuto = flag.Bool("ingest-auto", false, "auto-register unknown objects arriving on /updates")
		mode       = flag.String("cluster", "", "cluster role: \"\" (standalone), \"node\" or \"coordinator\"")
		peers      = flag.String("peers", "", "coordinator mode: comma-separated name=baseURL node list")
		replicas   = flag.Int("replicas", 1, "coordinator mode: replicas per key range (R)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060; empty disables)")
		traceEvery = flag.Int("trace-every", 0, "coordinator mode: trace every n-th query on GET /trace (0 disables, 1 traces all)")

		coordID    = flag.String("coordinator-id", "", "coordinator mode: this coordinator's name on the shared membership log (enables multi-coordinator fan-in)")
		coordPeers = flag.String("peers-coordinators", "", "coordinator mode: comma-separated name=baseURL list of peer coordinators")
		leaseFor   = flag.Duration("lease-for", 30*time.Second, "fan-in: self-heal lease tenure length")
		gossipEach = flag.Duration("gossip-every", 2*time.Second, "fan-in: membership-log gossip period")

		heartbeat     = flag.Duration("heartbeat", 2*time.Second, "coordinator: liveness heartbeat period (0 disables self-healing)")
		demoteAfter   = flag.Duration("demote-after", 5*time.Minute, "coordinator: auto-demote a member down this long (0 disables)")
		demoteHints   = flag.Int64("demote-hints", 0, "coordinator: auto-demote a down member after this many hinted records (0 disables)")
		reweightEvery = flag.Duration("reweight-every", time.Minute, "coordinator: load-skew sample period (0 disables reweighting)")
		reweightRatio = flag.Float64("reweight-ratio", 4, "coordinator: max/min routed-record skew that counts as a breach")
		reweightAfter = flag.Int("reweight-after", 3, "coordinator: consecutive breached samples before reweighting")
	)
	flag.Parse()
	cfg := config{
		addr: *addr, fleet: *fleet, seed: *seed, shards: *shards, workers: *workers,
		ingest: *ingest, ingestAuto: *ingestAuto, mode: *mode, peers: *peers, replicas: *replicas,
		pprofAddr: *pprofAddr, traceEvery: *traceEvery,
		coordID: *coordID, coordPeers: *coordPeers, leaseFor: *leaseFor, gossipEach: *gossipEach,
		heartbeat: *heartbeat, demoteAfter: *demoteAfter, demoteHints: *demoteHints,
		reweightEvery: *reweightEvery, reweightRatio: *reweightRatio, reweightAfter: *reweightAfter,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "locserver:", err)
		os.Exit(1)
	}
}

type config struct {
	addr            string
	fleet           int
	seed            int64
	shards, workers int
	ingest          bool
	ingestAuto      bool
	mode            string
	peers           string
	replicas        int
	pprofAddr       string
	traceEvery      int

	coordID    string
	coordPeers string
	leaseFor   time.Duration
	gossipEach time.Duration

	heartbeat     time.Duration
	demoteAfter   time.Duration
	demoteHints   int64
	reweightEvery time.Duration
	reweightRatio float64
	reweightAfter int
}

// buildService simulates the fleet and returns the populated service
// plus the road network it drives on. Vehicle movement is generated on
// a pool of workers goroutines and the protocol updates are ingested
// through the service's batched path. fleet == 0 skips the simulation
// and returns an empty store over the generated network.
func buildService(fleet int, seed int64, routeLen float64, shards, workers int) (*locserv.Service, *roadmap.Graph, error) {
	cor, err := mapgen.CityGrid(mapgen.DefaultCityConfig(seed))
	if err != nil {
		return nil, nil, err
	}
	g := cor.Graph
	svc := locserv.NewSharded(shards)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if fleet == 0 {
		log.Printf("starting with an empty %d-shard store over a %d-link city", svc.Shards(), g.NumLinks())
		return svc, g, nil
	}

	log.Printf("simulating %d vehicles over a %d-link city (%d shards, %d workers)...",
		fleet, g.NumLinks(), svc.Shards(), workers)
	// Movement generation is by far the most expensive part of startup;
	// GenerateFleet runs it on the worker pool.
	objs, err := sim.GenerateFleet(g, svc, sim.FleetSpec{
		N:        fleet,
		Seed:     seed,
		RouteLen: routeLen,
		Workers:  workers,
		IDFormat: "car-%02d",
		Params:   tracegen.CityCarParams(),
		Source:   core.SourceConfig{US: 100, UP: 5, Sightings: 4},
	})
	if err != nil {
		return nil, nil, err
	}

	fl := sim.Fleet{Service: svc, Objects: objs, Workers: workers}
	res, err := fl.Run()
	if err != nil {
		return nil, nil, err
	}
	var updates int64
	for _, n := range res.Updates {
		updates += n
	}
	log.Printf("fleet run: %d samples -> %d updates (%d record bytes sent), mean server error %.1f m",
		res.Samples, updates, res.Wire.BytesSent, res.MeanErr)
	return svc, g, nil
}

// handler mounts the query API, optionally with the binary ingest
// endpoint and on-first-contact registration.
func handler(svc *locserv.Service, g *roadmap.Graph, ingest, ingestAuto bool) http.Handler {
	if !ingest {
		return svc.Handler()
	}
	var auto locserv.AutoRegister
	if ingestAuto {
		auto = func(locserv.ObjectID) core.Predictor { return core.NewMapPredictor(g) }
	}
	return svc.HandlerWithIngest(auto)
}

// parsePeers parses the -peers list into HTTP cluster members.
func parsePeers(list string) ([]*cluster.Member, error) {
	if strings.TrimSpace(list) == "" {
		return nil, fmt.Errorf("coordinator mode needs -peers name=baseURL[,name=baseURL...]")
	}
	var members []*cluster.Member
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, url, ok := strings.Cut(item, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad peer %q (want name=baseURL)", item)
		}
		members = append(members, cluster.NewHTTPMember(name, url, nil))
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("no peers in %q", list)
	}
	return members, nil
}

// tickPeriod picks the Coordinator.Tick drive period: the heartbeat
// when self-healing is on, otherwise the gossip period when only the
// fan-in layer needs driving, otherwise zero (no ticker).
func tickPeriod(cfg config) time.Duration {
	if cfg.heartbeat > 0 {
		return cfg.heartbeat
	}
	if cfg.coordID != "" && cfg.gossipEach > 0 {
		return cfg.gossipEach
	}
	return 0
}

// addPeerCoordinators registers each name=baseURL peer coordinator on
// the fan-in layer over the HTTP peer transport, returning the names.
func addPeerCoordinators(coord *cluster.Coordinator, list string) ([]string, error) {
	var names []string
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, url, ok := strings.Cut(item, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad peer coordinator %q (want name=baseURL)", item)
		}
		if err := coord.AddPeerCoordinator(name, wire.NewPeerClient(url, nil)); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// startPprof serves the net/http/pprof handlers on their own listener,
// kept off the service address so profiling endpoints are never exposed
// alongside the public API by accident.
func startPprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	log.Printf("pprof listening on http://%s/debug/pprof/", addr)
	go func() {
		if err := srv.ListenAndServe(); err != nil {
			log.Printf("pprof server: %v", err)
		}
	}()
}

func run(cfg config) error {
	if cfg.pprofAddr != "" {
		startPprof(cfg.pprofAddr)
	}
	var h http.Handler
	var endpoints string
	switch cfg.mode {
	case "", "standalone":
		svc, g, err := buildService(cfg.fleet, cfg.seed, 15000, cfg.shards, cfg.workers)
		if err != nil {
			return err
		}
		h = handler(svc, g, cfg.ingest, cfg.ingestAuto)
		endpoints = "/objects, /position, /nearest, /within, /healthz, /stats, /metrics"
		if cfg.ingest {
			endpoints += ", POST /updates"
		}

	case "node":
		// A cluster node: its partition of the store plus the member
		// stream the coordinator speaks. The factory
		// auto-registers unknown ids (routed ingest and handoff imports),
		// sharing the prediction function through the common seed.
		svc, g, err := buildService(cfg.fleet, cfg.seed, 15000, cfg.shards, cfg.workers)
		if err != nil {
			return err
		}
		node := locserv.NewNodeService(svc, func(locserv.ObjectID) core.Predictor {
			return core.NewMapPredictor(g)
		})
		h = node.Handler()
		endpoints = "/objects, /position, /nearest, /within, /healthz, /stats, /metrics, /trace, POST /updates, GET /member (Upgrade)"

	case "coordinator":
		members, err := parsePeers(cfg.peers)
		if err != nil {
			return err
		}
		coord, err := cluster.NewReplicated(0, cfg.replicas, members...)
		if err != nil {
			return err
		}
		if cfg.coordID != "" {
			// Multi-coordinator fan-in: this coordinator replicates
			// membership over the shared record log and fences its
			// self-heal behind the replicated lease. Peer coordinators
			// exchange logs, stats and hints over POST /peer.
			coord.EnableFanIn(cfg.coordID, cluster.FanInConfig{
				LeaseFor:    cfg.leaseFor.Seconds(),
				GossipEvery: cfg.gossipEach.Seconds(),
			})
			names, err := addPeerCoordinators(coord, cfg.coordPeers)
			if err != nil {
				return err
			}
			log.Printf("fan-in coordinator %q: lease %s, gossip %s, peers [%s]",
				cfg.coordID, cfg.leaseFor, cfg.gossipEach, strings.Join(names, ", "))
		} else if cfg.coordPeers != "" {
			return fmt.Errorf("-peers-coordinators needs -coordinator-id")
		}
		if cfg.heartbeat > 0 {
			coord.EnableSelfHeal(cluster.SelfHealConfig{
				HeartbeatEvery: cfg.heartbeat.Seconds(),
				DemoteAfter:    cfg.demoteAfter.Seconds(),
				DemoteHints:    cfg.demoteHints,
				ReweightEvery:  cfg.reweightEvery.Seconds(),
				ReweightRatio:  cfg.reweightRatio,
				ReweightAfter:  cfg.reweightAfter,
			})
			log.Printf("self-healing membership: heartbeat %s, demote after %s / %d hints, reweight every %s at %.0fx skew",
				cfg.heartbeat, cfg.demoteAfter, cfg.demoteHints, cfg.reweightEvery, cfg.reweightRatio)
		}
		// Both the self-healing loops and the fan-in layer (gossip, lease
		// renewal, hint forwarding) are driven by Coordinator.Tick on wall
		// seconds: a ticker drives it with the seconds elapsed since boot
		// (the coordinator's transport clock).
		if period := tickPeriod(cfg); period > 0 {
			start := time.Now()
			ticker := time.NewTicker(period)
			go func() {
				for range ticker.C {
					coord.Tick(time.Since(start).Seconds())
				}
			}()
		}
		if cfg.traceEvery > 0 {
			coord.SetTraceSampling(cfg.traceEvery)
			log.Printf("tracing every %d-th query on GET /trace", cfg.traceEvery)
		}
		h = cluster.Handler(coord)
		log.Printf("coordinating %d nodes (R=%d): %s",
			len(members), coord.Replicas(), strings.Join(coord.Nodes(), ", "))
		endpoints = "/position, /nearest, /within, /healthz, /stats, /cluster, /metrics, /trace, POST /updates, POST /peer"

	default:
		return fmt.Errorf("unknown -cluster mode %q (want node or coordinator)", cfg.mode)
	}

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	role := cfg.mode
	if role == "" {
		role = "standalone"
	}
	log.Printf("location service (%s) listening on http://%s (%s)", role, cfg.addr, endpoints)
	return srv.ListenAndServe()
}
