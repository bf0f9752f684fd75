package core

import (
	"fmt"
	"math"

	"mapdr/internal/geo"
	"mapdr/internal/mapmatch"
	"mapdr/internal/roadmap"
	"mapdr/internal/trace"
)

// SourceConfig parameterises a protocol source.
type SourceConfig struct {
	// US is the accuracy requested at the server (u_s), metres.
	US float64
	// UP is the uncertainty of the positioning sensor (u_p), metres. The
	// deviation trigger fires when dist + UP > threshold (paper §2).
	UP float64
	// Sightings is the window size n for speed/heading estimation from
	// positions (paper §4: 2 freeway, 4 city/inter-urban, 8 walking).
	Sightings int
	// Threshold overrides the fixed u_s threshold (Wolfson adr/dtdr).
	Threshold ThresholdPolicy
	// Aux adds time-based / movement-based triggers.
	Aux AuxPolicy
	// MatchConfig configures map matching (map-based sources only).
	MatchConfig mapmatch.Config
}

// Validate checks the configuration.
func (c SourceConfig) Validate() error {
	if c.US <= 0 {
		return fmt.Errorf("core: US must be positive")
	}
	if c.UP < 0 {
		return fmt.Errorf("core: UP must be non-negative")
	}
	if c.UP >= c.US {
		return fmt.Errorf("core: UP (%v) must be below US (%v)", c.UP, c.US)
	}
	if c.Sightings < 2 {
		return fmt.Errorf("core: Sightings must be >= 2")
	}
	return nil
}

// Source is the protocol endpoint on the mobile device: it monitors the
// positioning sensor and decides when to send updates (paper Fig. 1,
// onSensorUpdate). Construct with NewSource (linear/static/known-route)
// or NewMapSource (map-based).
type Source struct {
	cfg     SourceConfig
	pred    Predictor
	est     *trace.Estimator
	matcher *mapmatch.Matcher // nil unless map-based
	route   *roadmap.Route    // nil unless known-route

	last       Report
	hasReport  bool
	seq        uint32
	lastSample trace.Sample
	hasSample  bool
	movedSince float64
	wasMatched bool

	// cursor evaluates the shared prediction function over the last
	// report for the per-sample deviation check: sample times are
	// monotone, so each check costs O(time since the previous sample)
	// instead of O(time since the last update) — constant per sample
	// instead of a full re-walk that grows with the protocol's quiet
	// period. Minted at the first check, then re-aimed (Cursor.Reset)
	// at every new report, so a source mints one in its lifetime.
	cursor Cursor
}

// NewSource returns a source using the given prediction function. The
// same predictor (same parameters) must drive the server replica.
func NewSource(cfg SourceConfig, pred Predictor) (*Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Threshold == nil {
		cfg.Threshold = FixedThreshold{US: cfg.US}
	}
	s := &Source{cfg: cfg, pred: pred, est: trace.NewEstimator(cfg.Sightings)}
	if rp, ok := pred.(*RoutePredictor); ok {
		s.route = rp.Route
	}
	return s, nil
}

// NewMapSource returns a map-based dead-reckoning source: the given
// graph-bound predictor plus a map matcher over its network. The server
// replica must use an identically configured predictor.
func NewMapSource(cfg SourceConfig, pred GraphPredictor) (*Source, error) {
	s, err := NewSource(cfg, pred)
	if err != nil {
		return nil, err
	}
	mc := cfg.MatchConfig
	if mc.MatchRadius <= 0 {
		mc = mapmatch.DefaultConfig()
		// The match radius must cover sensor noise with margin.
		if r := 5 * cfg.UP; r > mc.MatchRadius {
			mc.MatchRadius = r
		}
	}
	s.matcher = mapmatch.New(pred.Graph(), mc)
	return s, nil
}

// Predictor returns the source's prediction function.
func (s *Source) Predictor() Predictor { return s.pred }

// LastReport returns the last transmitted report (valid after the first
// update).
func (s *Source) LastReport() (Report, bool) { return s.last, s.hasReport }

// OnSample processes one sensor sample and returns an update when the
// protocol requires transmission.
func (s *Source) OnSample(sample trace.Sample) (Update, bool) {
	v, heading, estOK := s.est.Add(sample)
	if s.hasSample {
		s.movedSince += sample.Pos.Dist(s.lastSample.Pos)
	}
	s.lastSample, s.hasSample = sample, true

	// Map matching (map-based protocol only).
	var match mapmatch.Result
	matchedNow := false
	if s.matcher != nil {
		h := heading
		if !estOK {
			h = math.NaN()
		}
		match = s.matcher.Feed(sample.T, sample.Pos, h)
		matchedNow = match.Matched
	}

	if !estOK {
		// Not enough sightings yet to estimate motion; do not report.
		return Update{}, false
	}

	reason := ReasonNone
	switch {
	case !s.hasReport:
		reason = ReasonInit
	case s.matcher != nil && match.Event == mapmatch.EventLost:
		// The paper requires an immediate update with an empty link so the
		// server switches to the linear fall-back.
		reason = ReasonLinkLost
	case s.matcher != nil && matchedNow && !s.wasMatched && !s.last.Link.IsValid():
		// Returned to the map: re-enter map-based prediction.
		reason = ReasonRematch
	default:
		predicted := s.predictLast(sample.T)
		deviation := sample.Pos.Dist(predicted)
		th := s.cfg.Threshold.Threshold(sample.T, s.last.T, v)
		if deviation+s.cfg.UP > th {
			reason = ReasonDeviation
		} else if r, due := s.cfg.Aux.due(sample.T, s.last.T, s.movedSince); due {
			reason = r
		}
	}
	s.wasMatched = matchedNow
	if reason == ReasonNone {
		return Update{}, false
	}

	rep := s.buildReport(sample, v, heading, match)
	s.last = rep
	s.hasReport = true
	if s.cursor != nil {
		s.cursor.Reset(rep) // re-aim at the new report, keeping its buffers
	}
	s.movedSince = 0
	s.cfg.Threshold.OnUpdate(sample.T, 0)
	return Update{Report: rep, Reason: reason}, true
}

// predictLast evaluates the shared prediction function over the last
// report through the source's cursor, whose answers are bit-identical
// to the predictor's Predict.
func (s *Source) predictLast(t float64) geo.Point {
	if s.cursor == nil {
		s.cursor = s.pred.NewCursor(s.last)
	}
	return s.cursor.At(t)
}

// buildReport assembles the report for the current state. V, Heading,
// Offset, RouteOffset and Omega are rounded to float32 here, as the wire
// codec carries them, so the report the source predicts from is the one
// every server decodes, bit for bit. The codec omits a RouteOffset or
// Omega that is zero, and decodes it as +0, so one that rounds to a zero
// of either sign is left at +0.
func (s *Source) buildReport(sample trace.Sample, v, heading float64, match mapmatch.Result) Report {
	s.seq++
	rep := Report{
		Seq:     s.seq,
		T:       sample.T,
		Pos:     sample.Pos,
		V:       float64(float32(v)),
		Heading: float64(float32(heading)),
		Link:    roadmap.NoDir,
	}
	if omega, ok := s.est.TurnRate(); ok && float32(omega) != 0 {
		rep.Omega = float64(float32(omega))
	}
	if s.matcher != nil && match.Matched {
		// Map-based updates carry the corrected position and the link id
		// (paper §3: "an update of the map-based protocol contains the
		// mobile object's corrected position o.p_c, its speed o.v and the
		// identifier of the current link o.l").
		rep.Pos = match.Corrected
		rep.Link = match.Dir
		rep.Offset = float64(float32(match.Offset))
	}
	if s.route != nil {
		if off, _ := s.route.Project(sample.Pos); float32(off) != 0 {
			rep.RouteOffset = float64(float32(off))
		}
	}
	return rep
}
