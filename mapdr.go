// Package mapdr is a library for bandwidth-efficient tracking of mobile
// objects: it implements the map-based dead-reckoning update protocol of
// Leonhardi, Nicu and Rothermel ("A Map-based Dead-reckoning Protocol for
// Updating Location Information", Univ. Stuttgart TR 2001/09 / IPPS WPIM
// 2002) together with the linear-prediction and distance-based baselines,
// the Wolfson threshold policies, a road-network model with map matching,
// synthetic map and movement generators, a simulation harness and a
// queryable location service.
//
// The core idea: a mobile device (source) and a location server share a
// deterministic prediction function. The source transmits an update only
// when the true position drifts more than the requested accuracy u_s from
// the shared prediction, so the server can always answer position queries
// within u_s while the radio stays quiet. The map-based predictor matches
// the object onto a road network and extrapolates along the road —
// following curves for free — which cuts update traffic by up to ~60%
// versus linear extrapolation on freeways, and ~91% overall versus
// distance-based reporting.
//
// The location service scales past a single lock: objects are hashed
// over independently locked shards (NewShardedLocationService), updates
// can be ingested in per-shard batches (LocationService.ApplyBatch with
// BatchUpdate values), and k-nearest/range queries fan out across the
// shards in parallel. The Fleet simulation harness drives many protocol
// sources on a worker pool (Fleet.Workers) and feeds the service through
// the batched path, so large fleets exercise the store the way a live
// deployment would.
//
// Updates cross an explicit wire/transport layer: sources and server
// share a variable-length binary codec (EncodeUpdateFrame /
// DecodeUpdateFrame) and a Transport interface with in-process
// (NewLoopbackTransport), simulated-lossy-link (NewSimLinkTransport)
// and real HTTP (NewIngestClient) implementations, so the same
// protocol code runs in simulation and as a networked client/server
// system, and measured bytes reflect real per-protocol message sizes.
// Queries share that stack: a binary query protocol (QueryRequest /
// QueryResponse over a QueryTransport) lets a ClusterCoordinator
// partition objects over many location-service nodes by consistent
// hashing, route ingest per partition and scatter-gather
// nearest/within answers that are bit-identical to a single-process
// store's (NewCluster, NewLocationNode, NewHTTPClusterMember).
//
// Prediction is incremental where it matters: the protocol's whole point
// is that updates are rare, so between updates both the source's
// per-sample deviation check and every server-side query evaluate the
// prediction function at a slowly advancing time. A Cursor (NewCursor,
// or StepPredictor.NewCursor) memoizes the road-graph walk state and
// advances it in O(time delta) per call instead of re-walking from the
// last report — bit-identical to the stateless Predict for every (rep,
// t), falling back transparently on backwards time or report change.
// Source, Server and the location service wire cursors in automatically;
// reach for NewCursor directly only when evaluating predictions outside
// those endpoints (e.g. replaying a report along a dense time grid).
//
// Quick start:
//
//	cor, _ := mapdr.GenerateFreeway(mapdr.DefaultFreewayConfig(1))
//	route, _ := mapdr.CorridorRoute(cor.Graph, cor.Main)
//	drive, _ := mapdr.DriveRoute(cor.Graph, route, mapdr.CarParams(), 1)
//
//	cfg := mapdr.SourceConfig{US: 100, UP: 5, Sightings: 2}
//	src, _ := mapdr.NewMapSource(cfg, mapdr.NewMapPredictor(cor.Graph))
//	srv := mapdr.NewServer(mapdr.NewMapPredictor(cor.Graph))
//	for _, s := range drive.Trace.Samples {
//	    if u, ok := src.OnSample(s); ok {
//	        srv.Apply(u)
//	    }
//	}
package mapdr

import (
	"net/http"

	"mapdr/internal/cluster"
	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/histmap"
	"mapdr/internal/locserv"
	"mapdr/internal/mapgen"
	"mapdr/internal/netsim"
	"mapdr/internal/roadmap"
	"mapdr/internal/sim"
	"mapdr/internal/trace"
	"mapdr/internal/tracegen"
	"mapdr/internal/wire"
)

// Geometry primitives.
type (
	// Point is a planar position in metres (X east, Y north).
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// Polyline is a piecewise-linear curve.
	Polyline = geo.Polyline
	// LatLon is a WGS84 coordinate.
	LatLon = geo.LatLon
	// Projection maps WGS84 to the local plane and back.
	Projection = geo.Projection
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// NewProjection returns a local tangent-plane projection centred on origin.
func NewProjection(origin LatLon) *Projection { return geo.NewProjection(origin) }

// Road network model.
type (
	// Graph is an immutable road network.
	Graph = roadmap.Graph
	// MapBuilder assembles a Graph.
	MapBuilder = roadmap.Builder
	// NodeID identifies an intersection.
	NodeID = roadmap.NodeID
	// LinkID identifies a link.
	LinkID = roadmap.LinkID
	// Dir is a directed link reference.
	Dir = roadmap.Dir
	// LinkSpec describes a link to add to a MapBuilder.
	LinkSpec = roadmap.LinkSpec
	// Route is a contiguous sequence of directed links.
	Route = roadmap.Route
	// TurnTable stores turn probabilities for the +probabilities variant.
	TurnTable = roadmap.TurnTable
	// RoadClass categorises links.
	RoadClass = roadmap.RoadClass
)

// Road classes.
const (
	ClassMotorway    = roadmap.ClassMotorway
	ClassTrunk       = roadmap.ClassTrunk
	ClassSecondary   = roadmap.ClassSecondary
	ClassResidential = roadmap.ClassResidential
	ClassFootpath    = roadmap.ClassFootpath
)

// NewMapBuilder returns an empty road-network builder.
func NewMapBuilder() *MapBuilder { return roadmap.NewBuilder() }

// ShortestPath computes a minimum-length route between two intersections.
func ShortestPath(g *Graph, a, b NodeID) (*Route, error) {
	return roadmap.ShortestPath(g, a, b, roadmap.LengthCost)
}

// NewRoute builds a route from directed links, validating continuity.
func NewRoute(g *Graph, dirs []Dir) (*Route, error) { return roadmap.NewRoute(g, dirs) }

// Synthetic map generation.
type (
	// Corridor is a generated network plus its main through-route nodes.
	Corridor = mapgen.Corridor
	// FreewayConfig parameterises GenerateFreeway.
	FreewayConfig = mapgen.FreewayConfig
	// InterUrbanConfig parameterises GenerateInterUrban.
	InterUrbanConfig = mapgen.InterUrbanConfig
	// CityConfig parameterises GenerateCity.
	CityConfig = mapgen.CityConfig
	// FootpathConfig parameterises GenerateFootpaths.
	FootpathConfig = mapgen.FootpathConfig
)

// DefaultFreewayConfig mirrors the paper's 163 km freeway trace scale.
func DefaultFreewayConfig(seed int64) FreewayConfig { return mapgen.DefaultFreewayConfig(seed) }

// DefaultInterUrbanConfig mirrors the paper's 99 km inter-urban scale.
func DefaultInterUrbanConfig(seed int64) InterUrbanConfig {
	return mapgen.DefaultInterUrbanConfig(seed)
}

// DefaultCityConfig returns a ~10x10 km irregular city grid.
func DefaultCityConfig(seed int64) CityConfig { return mapgen.DefaultCityConfig(seed) }

// DefaultFootpathConfig returns a ~2x2 km pedestrian path web.
func DefaultFootpathConfig(seed int64) FootpathConfig { return mapgen.DefaultFootpathConfig(seed) }

// GenerateFreeway generates a curved motorway corridor with exits.
func GenerateFreeway(cfg FreewayConfig) (*Corridor, error) { return mapgen.Freeway(cfg) }

// GenerateInterUrban generates a winding trunk road through villages.
func GenerateInterUrban(cfg InterUrbanConfig) (*Corridor, error) { return mapgen.InterUrban(cfg) }

// GenerateCity generates an irregular signalised street grid.
func GenerateCity(cfg CityConfig) (*Corridor, error) { return mapgen.CityGrid(cfg) }

// GenerateFootpaths generates a dense pedestrian path network.
func GenerateFootpaths(cfg FootpathConfig) (*Corridor, error) { return mapgen.FootpathWeb(cfg) }

// Movement simulation.
type (
	// MoveParams are longitudinal dynamics parameters.
	MoveParams = tracegen.Params
	// DriveResult is a simulated drive: ground-truth trace plus route.
	DriveResult = tracegen.DriveResult
	// WanderPolicy controls random route selection.
	WanderPolicy = tracegen.WanderPolicy
)

// CarParams returns passenger-car dynamics.
func CarParams() MoveParams { return tracegen.CarParams() }

// CityCarParams returns car dynamics with stop-and-go congestion.
func CityCarParams() MoveParams { return tracegen.CityCarParams() }

// PedestrianParams returns walking dynamics.
func PedestrianParams() MoveParams { return tracegen.PedestrianParams() }

// DriveRoute simulates movement along a route at 1 Hz.
func DriveRoute(g *Graph, route *Route, p MoveParams, seed int64) (*DriveResult, error) {
	return tracegen.DriveRoute(g, route, p, seed)
}

// Wander generates a random plausible route of at least minLength metres.
func Wander(g *Graph, seed int64, start NodeID, minLength float64, pol WanderPolicy) (*Route, error) {
	return tracegen.Wander(g, seed, start, minLength, pol)
}

// DefaultWanderPolicy suits urban driving.
func DefaultWanderPolicy() WanderPolicy { return tracegen.DefaultWanderPolicy() }

// CorridorRoute builds the through-route of a generated corridor.
func CorridorRoute(g *Graph, main []NodeID) (*Route, error) {
	return tracegen.CorridorRoute(g, main)
}

// Traces and sensors.
type (
	// Trace is a time-ordered sequence of position samples.
	Trace = trace.Trace
	// Sample is one positioning-sensor observation.
	Sample = trace.Sample
	// NoiseModel perturbs ground truth into sensor readings.
	NoiseModel = trace.NoiseModel
)

// NewGaussMarkovNoise returns temporally correlated GPS-like error.
func NewGaussMarkovNoise(seed int64, sigma, tau float64) NoiseModel {
	return trace.NewGaussMarkov(seed, sigma, tau)
}

// ApplyNoise perturbs every position of a trace.
func ApplyNoise(tr *Trace, m NoiseModel) *Trace { return trace.ApplyNoise(tr, m) }

// Protocol endpoints.
type (
	// Report is the transmitted object state.
	Report = core.Report
	// Update is one protocol message.
	Update = core.Update
	// Predictor is the shared prediction function.
	Predictor = core.Predictor
	// Source is the mobile-side protocol endpoint.
	Source = core.Source
	// Server is the location-server protocol replica.
	Server = core.Server
	// SourceConfig parameterises a Source.
	SourceConfig = core.SourceConfig
	// LinearPredictor extrapolates along the reported heading.
	LinearPredictor = core.LinearPredictor
	// StaticPredictor yields distance-based reporting.
	StaticPredictor = core.StaticPredictor
	// MapPredictor extrapolates along the road network.
	MapPredictor = core.MapPredictor
	// RoutePredictor extrapolates along a pre-known route.
	RoutePredictor = core.RoutePredictor
	// CTRVPredictor extrapolates a constant-turn-rate arc (§2's
	// higher-order prediction variant).
	CTRVPredictor = core.CTRVPredictor
	// SpeedCappedMapPredictor is the §6 speed-limit-aware map predictor.
	SpeedCappedMapPredictor = core.SpeedCappedMapPredictor
	// GraphPredictor is the map-bound predictor family.
	GraphPredictor = core.GraphPredictor
	// ThresholdPolicy varies the deviation threshold (Wolfson adr/dtdr).
	ThresholdPolicy = core.ThresholdPolicy
	// Cursor incrementally advances one (predictor, report) prediction.
	Cursor = core.Cursor
	// StepPredictor is a Predictor that can mint prediction cursors.
	StepPredictor = core.StepPredictor
)

// NewCursor returns a prediction cursor for any predictor: monotone
// query times advance in O(time delta) instead of re-walking from the
// report, with results bit-identical to Predictor.Predict. Predictors
// outside the StepPredictor family get a stateless fallback cursor.
func NewCursor(p Predictor, rep Report) Cursor { return core.NewCursor(p, rep) }

// PredictedState returns the predicted position and travel heading at
// time t in a single walk advance.
func PredictedState(p Predictor, rep Report, t float64) (Point, float64) {
	return core.PredictedState(p, rep, t)
}

// NewSpeedCappedMapPredictor returns the speed-limit-aware map predictor
// (paper §6 future work). raise additionally assumes objects accelerate
// back toward the link limit.
func NewSpeedCappedMapPredictor(g *Graph, raise bool) *SpeedCappedMapPredictor {
	return core.NewSpeedCappedMapPredictor(g, raise)
}

// NewMapPredictor returns the paper's map-based prediction function with
// the smallest-angle turn chooser.
func NewMapPredictor(g *Graph) *MapPredictor { return core.NewMapPredictor(g) }

// NewSource returns a protocol source with the given predictor.
func NewSource(cfg SourceConfig, pred Predictor) (*Source, error) {
	return core.NewSource(cfg, pred)
}

// NewMapSource returns a map-based dead-reckoning source (a graph-bound
// predictor plus a map matcher over its network).
func NewMapSource(cfg SourceConfig, pred GraphPredictor) (*Source, error) {
	return core.NewMapSource(cfg, pred)
}

// NewServer returns a server replica for the given predictor.
func NewServer(pred Predictor) *Server { return core.NewServer(pred) }

// Location service.
type (
	// LocationService stores per-object replicas and answers queries.
	LocationService = locserv.Service
	// ObjectID identifies a tracked object.
	ObjectID = locserv.ObjectID
	// ObjectPos is a location-service query result.
	ObjectPos = locserv.ObjectPos
	// BatchUpdate pairs an object id with an update message for
	// LocationService.ApplyBatch.
	BatchUpdate = locserv.Update
	// LocationQuerier answers position/nearest/within queries — a
	// LocationService or a ClusterCoordinator.
	LocationQuerier = locserv.Querier
	// LocationRegistry registers and removes tracked objects — a
	// LocationService or a ClusterCoordinator.
	LocationRegistry = locserv.Registry
	// LocationNode is the minimal API one location-service node exposes
	// to a cluster (register/deliver/queries/export/stats).
	LocationNode = locserv.Node
	// NodeService binds a LocationService to a predictor factory,
	// implementing LocationNode in-process.
	NodeService = locserv.NodeService
	// NodeStats is a node's counter snapshot, including the
	// spatial-index health counters.
	NodeStats = locserv.NodeStats
	// IndexStats counts the live spatial index's health: cell moves and
	// bound recomputes on the write path, cells visited and cells k-NN
	// queries took off their bound-ordered frontiers (RingExpansions) on
	// the read path, and the indexed-vs-scan query mix.
	IndexStats = locserv.IndexStats
)

// DefaultLocationShards is the shard count used by NewLocationService.
const DefaultLocationShards = locserv.DefaultShards

// NewLocationService returns an empty location service with the default
// shard count.
func NewLocationService() *LocationService { return locserv.New() }

// NewShardedLocationService returns an empty location service with n
// independently locked shards; n = 1 degenerates to a single-lock store.
func NewShardedLocationService(n int) *LocationService { return locserv.NewSharded(n) }

// Wire transport: the explicit source->server update path. Updates
// travel as variable-length binary records (cheap for linear updates,
// map-bound fields flags-gated) in length-prefixed frames; the same
// codec and Transport interface run in-process (NewLoopbackTransport),
// through the simulated lossy link (NewSimLinkTransport over a
// NetworkLink) and over real HTTP (NewIngestClient posting to a
// location service's /updates endpoint).
type (
	// Transport carries update batches from sources toward a sink.
	Transport = wire.Transport
	// TransportRecord is one addressed update, the unit transports carry.
	TransportRecord = wire.Record
	// TransportSink receives delivered record batches.
	TransportSink = wire.Sink
	// TransportSinkFunc adapts a function to TransportSink.
	TransportSinkFunc = wire.SinkFunc
	// TransportStats counts a transport's records, bytes and drops.
	TransportStats = wire.Stats
	// NetworkLink is the simulated wireless link: latency, jitter, loss
	// and disconnection windows.
	NetworkLink = netsim.Link
	// IngestClient is the HTTP transport posting binary frames.
	IngestClient = wire.Client
	// AutoRegister admits unknown objects on a service's ingest path.
	AutoRegister = locserv.AutoRegister
)

// NewLoopbackTransport returns the synchronous in-process transport —
// bit-identical to applying updates directly, with byte accounting.
func NewLoopbackTransport(sink TransportSink) *wire.Loopback { return wire.NewLoopback(sink) }

// NewNetworkLink returns a simulated wireless link.
func NewNetworkLink(seed int64, latency, jitter, lossProb float64) *NetworkLink {
	return netsim.NewLink(seed, latency, jitter, lossProb)
}

// NewSimLinkTransport returns a transport routing updates through the
// given simulated link.
func NewSimLinkTransport(l *NetworkLink, sink TransportSink) *wire.SimLink {
	return wire.NewSimLink(l, sink)
}

// NewIngestClient returns an HTTP transport posting wire frames to
// baseURL+"/updates" (a LocationService.HandlerWithIngest endpoint).
// hc may be nil for http.DefaultClient.
func NewIngestClient(baseURL string, hc *http.Client) *IngestClient {
	return wire.NewClient(baseURL, hc)
}

// EncodeUpdateFrame encodes a batch of records as one binary wire frame.
func EncodeUpdateFrame(batch []TransportRecord) ([]byte, error) { return wire.EncodeFrame(batch) }

// DecodeUpdateFrame decodes one frame from the front of data, returning
// the records and the bytes consumed.
func DecodeUpdateFrame(data []byte) ([]TransportRecord, int, error) { return wire.DecodeFrame(data) }

// Cluster: the location service scaled past one process. A
// consistent-hash ring partitions object ids over member nodes; a
// coordinator routes ingest batches per partition over the update
// transports and scatter-gathers nearest/within queries over the
// binary query protocol, merging with the same order the in-process
// shard merge uses — answers are bit-identical to a single sharded
// store holding the same objects. With NewReplicatedCluster every key
// range lives on R distinct members: ingest fans out to all owners,
// reads merge on the freshest sequence number (with background read
// repair of stale replicas), failing members are circuit-broken and
// their updates buffered as hints that drain on recovery. Membership
// changes rebalance by key-range handoff between preference lists
// (Coordinator.AddNode / RemoveNode / Reweight).
type (
	// ClusterCoordinator fronts a cluster of location-service nodes; it
	// implements Transport, LocationQuerier and LocationRegistry, so
	// fleets and HTTP handlers run unchanged on top of it.
	ClusterCoordinator = cluster.Coordinator
	// ClusterMember is one cluster node: name, Node API, ingest path.
	ClusterMember = cluster.Member
	// ClusterMemberStats is a per-member routing/health snapshot.
	ClusterMemberStats = cluster.MemberStats
	// ClusterRing is the consistent-hash partitioner.
	ClusterRing = cluster.Ring
	// ClusterMovement is one key range whose owner changed.
	ClusterMovement = cluster.Movement
	// ClusterFaultInjector is the kill switch of a faulty test member.
	ClusterFaultInjector = cluster.FaultInjector
	// ClusterSelfHealConfig tunes the self-healing membership loops:
	// liveness heartbeats, auto-demotion deadlines, reweight hysteresis.
	ClusterSelfHealConfig = cluster.SelfHealConfig
	// ClusterSelfHealStats is a snapshot of the self-healing counters.
	ClusterSelfHealStats = cluster.SelfHealStats
	// ClusterHealth is a member's liveness state (up, suspect or down).
	ClusterHealth = cluster.Health
	// RemoteNode speaks the wire query protocol to a remote node.
	RemoteNode = cluster.RemoteNode
	// QueryTransport carries binary query frames to a node.
	QueryTransport = wire.QueryTransport
	// QueryRequest and QueryResponse are the wire query frames.
	QueryRequest  = wire.QueryRequest
	QueryResponse = wire.QueryResponse
	// HintBuffer holds updates for an unreachable replica, coalesced to
	// the freshest record per object (hinted handoff).
	HintBuffer = wire.HintBuffer
	// HintStats is a hint buffer's accounting snapshot.
	HintStats = wire.HintStats
)

// Member liveness states reported by ClusterMemberStats.Health.
const (
	ClusterHealthUp      = cluster.HealthUp
	ClusterHealthSuspect = cluster.HealthSuspect
	ClusterHealthDown    = cluster.HealthDown
)

// NewLocationNode binds a service to a predictor factory, making it a
// cluster-capable node. factory may be nil (Register and
// unknown-object delivery are then rejected).
func NewLocationNode(svc *LocationService, factory AutoRegister) *NodeService {
	return locserv.NewNodeService(svc, factory)
}

// NewCluster returns a coordinator over the given members. vnodes is
// the virtual-node count per member (<= 0 selects a sensible default).
func NewCluster(vnodes int, members ...*ClusterMember) (*ClusterCoordinator, error) {
	return cluster.New(vnodes, members...)
}

// NewReplicatedCluster returns a coordinator replicating every key
// range to replicas distinct members — quorum-free fault tolerance:
// writes fan out to all owners (idempotent per Seq), reads answer from
// the freshest replica, a failed node degrades rather than errors.
func NewReplicatedCluster(vnodes, replicas int, members ...*ClusterMember) (*ClusterCoordinator, error) {
	return cluster.NewReplicated(vnodes, replicas, members...)
}

// DefaultClusterSelfHealConfig returns the self-healing tuning used
// when a field is left zero: 2 s heartbeats, suspicion after 3 missed
// beats, recovery after 2 clean probes, demotion after 300 s down,
// reweighting at 4x skew sustained over 3 one-minute samples.
func DefaultClusterSelfHealConfig() ClusterSelfHealConfig {
	return cluster.DefaultSelfHealConfig()
}

// NewFaultyClusterMember wraps an in-process node as a member with a
// kill switch — the harness failure-tolerance tests and the drsim
// failover experiment inject faults with.
func NewFaultyClusterMember(name string, node *NodeService) (*ClusterMember, *ClusterFaultInjector) {
	return cluster.NewFaultyMember(name, node)
}

// NewLocalClusterMember wraps an in-process node as a cluster member.
func NewLocalClusterMember(name string, node *NodeService) *ClusterMember {
	return cluster.NewLocalMember(name, node)
}

// NewHTTPClusterMember wraps a remote location server as a cluster
// member: queries, admin calls and ingest ride one multiplexed member
// stream upgraded on the server's address (GET /member). The stream
// dials its own connection; hc is not consulted.
func NewHTTPClusterMember(name, baseURL string, hc *http.Client) *ClusterMember {
	return cluster.NewHTTPMember(name, baseURL, hc)
}

// Fleet simulation.
type (
	// Fleet drives many objects against one location service in
	// simulation-time lockstep.
	Fleet = sim.Fleet
	// FleetObject is one tracked object in a Fleet.
	FleetObject = sim.FleetObject
	// FleetResult summarises a fleet run.
	FleetResult = sim.FleetResult
)

// History-based map learning (paper §2, "history-based dead-reckoning").
type (
	// MapLearner learns a road map from past movement traces.
	MapLearner = histmap.Learner
	// MapLearnerConfig parameterises a MapLearner.
	MapLearnerConfig = histmap.Config
	// LearnedMap is the result of map learning.
	LearnedMap = histmap.Result
)

// NewMapLearner returns a learner that builds a road map from traces.
func NewMapLearner(cfg MapLearnerConfig) *MapLearner { return histmap.New(cfg) }

// DefaultMapLearnerConfig suits urban learning with few-metre GPS noise.
func DefaultMapLearnerConfig() MapLearnerConfig { return histmap.DefaultConfig() }
