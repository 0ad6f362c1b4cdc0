package telemetry

import "sync"

// ReplayReport is what a replay source reports at scrape time (the
// flymon_replay_* families): whether a trace replay is attached and how
// far it has progressed.
type ReplayReport struct {
	Active  bool
	Packets uint64
}

// ReplaySource is implemented by the replay driver (mmtrace.Replayer); the
// Registry polls it at scrape time while a replay is attached.
type ReplaySource interface {
	TelemetryReplay() ReplayReport
}

// replayHook holds the currently attached replay source. Detaching latches
// the source's final report so post-replay scrapes still show totals.
type replayHook struct {
	mu    sync.Mutex
	src   ReplaySource
	final ReplayReport
	ever  bool
}

func (h *replayHook) attach(s ReplaySource) {
	h.mu.Lock()
	h.src = s
	h.ever = h.ever || s != nil
	h.mu.Unlock()
}

func (h *replayHook) detach(s ReplaySource) {
	h.mu.Lock()
	if h.src == s && s != nil {
		h.final = s.TelemetryReplay()
		h.final.Active = false
		h.src = nil
	}
	h.mu.Unlock()
}

func (h *replayHook) report() (ReplayReport, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.src != nil {
		rep := h.src.TelemetryReplay()
		rep.Active = true
		return rep, true
	}
	return h.final, h.ever
}

// collect declares the replay families, present once a replay has been
// attached and latched at its final counters after it ends.
func (h *replayHook) collect(c *catalogue) {
	rp, ok := h.report()
	if !ok {
		return
	}
	c.gauge("flymon_replay_active", "Whether a trace replay is currently attached.", sample(boolValue(rp.Active)))
	c.counter("flymon_replay_packets_total", "Packets handed to workers by the replay.", sample(rp.Packets))
}

// SetReplaySource attaches a live replay to the registry; /metrics gains
// the flymon_replay_* family while it runs.
func (r *Registry) SetReplaySource(s ReplaySource) { r.replay.attach(s) }

// ClearReplaySource detaches s (if still attached), latching its final
// counters so they survive into post-replay scrapes.
func (r *Registry) ClearReplaySource(s ReplaySource) { r.replay.detach(s) }
